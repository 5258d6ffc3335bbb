//! Booting a serving set from a snapshot directory.
//!
//! The directory layout is exactly what the figure harness's
//! `--save-index DIR` produces:
//!
//! ```text
//! DIR/<dataset>.data.snap        one dataset snapshot per collection
//! DIR/<dataset>-<kind>.snap      one index snapshot per (dataset, method)
//! DIR/<...>.snap.journal         ingest journals (replayed into their base)
//! DIR/gt-<fingerprint>.snap      ground-truth caches (ignored here)
//! ```
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

use hydra::persist::{
    dataset::load_dataset, journal_path, open_dataset_streaming, DataSource, DatasetHandle,
    LoaderRegistry, PersistError, StoreBacking,
};
use hydra::Dataset;

use crate::server::ServedIndex;

/// Suffix of dataset snapshots inside a serving directory.
const DATASET_SUFFIX: &str = ".data.snap";
/// Suffix of every snapshot file.
const SNAPSHOT_SUFFIX: &str = ".snap";

/// Why a serving directory could not be booted.
#[derive(Debug)]
pub enum BootError {
    /// The directory could not be scanned.
    Io(String),
    /// The directory holds no `*.data.snap` dataset — there is nothing to
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
                "no *{DATASET_SUFFIX} dataset snapshot in {} — did the saving run use --save-index?",
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
    /// Snapshot files skipped because they belong to no dataset (ground
    /// truth caches, unrelated files) — surfaced so an operator can spot a
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

/// The dataset an index name belongs to: the **longest** name in
/// `dataset_names` that prefixes `index_name` up to a `-` separator —
/// so `sift-like-vafile` belongs to `sift-like`, never to a dataset
/// named `sift`. One rule, shared by the boot scan and by clients
/// (e.g. `serve_client`) mapping served index names back onto scenario
/// datasets, so the two can never drift apart.
pub fn dataset_for_index<'a, I>(index_name: &str, dataset_names: I) -> Option<&'a str>
where
    I: IntoIterator<Item = &'a str>,
{
    dataset_names
        .into_iter()
        .filter(|name| {
            index_name
                .strip_prefix(*name)
                .is_some_and(|rest| rest.starts_with('-'))
        })
        .max_by_key(|name| name.len())
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
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| BootError::Io(format!("{}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();

    // Pass 1: datasets (keeping each snapshot's path: out-of-core boots
    // hand it to the loaders as the backing file). Out-of-core, the
    // snapshot is *streamed* — fully validated in bounded chunks, but
    // never materialized — so boot-time peak memory stays O(pool) no
    // matter how large the collection is.
    let mut datasets: Vec<(String, BootData, PathBuf)> = Vec::new();
    for file in &files {
        let Some(name) = file_name_str(file).and_then(|n| n.strip_suffix(DATASET_SUFFIX)) else {
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
    for file in &files {
        let Some(stem) = file_name_str(file).and_then(|n| n.strip_suffix(SNAPSHOT_SUFFIX)) else {
            // `.snap.series` sidecars are this boot path's own out-of-core
            // cache (written by an earlier file-backed boot), and
            // `.snap.journal` files are ingest journals replayed as part
            // of loading their base snapshot — neither is an operator
            // file worth flagging in the skip listing.
            if file_name_str(file)
                .is_some_and(|n| n.ends_with(".snap.series") || n.ends_with(".snap.journal"))
            {
                continue;
            }
            skipped.push(file.clone());
            continue;
        };
        if stem.ends_with(".data") {
            continue; // a dataset, already loaded
        }
        let Some(owner) =
            dataset_for_index(stem, datasets.iter().map(|(name, _, _)| name.as_str()))
        else {
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

fn file_name_str(path: &Path) -> Option<&str> {
    path.file_name().and_then(|n| n.to_str())
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
        // A ground-truth cache and a stray file must be skipped, not fatal.
        hydra::persist::SnapshotWriter::new("ground-truth", 1)
            .write_to(&dir.join("gt-00ff.snap"))
            .unwrap();
        std::fs::write(dir.join("notes.txt"), b"hello").unwrap();

        let registry = hydra::standard_registry(hydra::StorageConfig::in_memory(), 2);
        let report = boot_from_dir(&dir, &registry).unwrap();
        let names: Vec<&str> = report.indexes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["walk-hnsw", "walk-isax2"]);
        assert_eq!(report.datasets, vec![("walk".to_string(), 150, 32)]);
        assert_eq!(report.skipped.len(), 2, "gt cache and notes.txt are skipped");
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
    fn dataset_matching_prefers_the_longest_prefix() {
        let names = ["sift", "sift-like", "rand256"];
        assert_eq!(
            dataset_for_index("sift-like-vafile", names),
            Some("sift-like")
        );
        assert_eq!(dataset_for_index("sift-hnsw", names), Some("sift"));
        assert_eq!(dataset_for_index("rand256-imi", names), Some("rand256"));
        assert_eq!(dataset_for_index("rand256", names), None); // no '-kind'
        assert_eq!(dataset_for_index("deep-like-imi", names), None);
        assert_eq!(dataset_for_index("sift-like", names), Some("sift")); // '-like' is the kind
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
