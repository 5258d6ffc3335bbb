//! The names of a snapshot directory's files, built and parsed in one
//! place.
//!
//! A snapshot directory is what `fig* --save-index DIR` writes and
//! `hydra-serve --snapshots DIR` boots. Every name in it comes from one
//! function here, and [`classify`] reads a name back, so the rule that
//! builds a name and the rule that parses it cannot drift apart:
//!
//! | Name | Built by | [`classify`] |
//! |---|---|---|
//! | `<dataset>.data.snap` | [`dataset_snapshot`] | [`Entry::Dataset`] |
//! | `<dataset>-<kind>.snap` | [`index_snapshot`] | [`Entry::Index`] |
//! | `<index snapshot>.journal` | [`journal_path`] | [`Entry::Known`] |
//! | `<index snapshot>.series` | [`sidecar_series_path`] | [`Entry::Known`] |
//! | `<dataset snapshot or .series>.<codec>` | [`coded_sidecar_path`] | [`Entry::Known`] |
//! | `gt-<fingerprint>.snap` | [`ground_truth_cache`] | [`Entry::Known`] |
//! | `shard-<s>/` | [`shard_dir`] | a directory of this same layout, one per shard |

use std::path::{Path, PathBuf};

use hydra_storage::PageCodec;

const SNAPSHOT: &str = ".snap";
const DATASET: &str = ".data.snap";
const JOURNAL: &str = "journal";
const SERIES: &str = "series";
const GROUND_TRUTH: &str = "gt-";

/// `<dataset>.data.snap`: the dataset a served index re-attaches.
pub fn dataset_snapshot(dir: &Path, dataset: &str) -> PathBuf {
    dir.join(format!("{}{DATASET}", sanitize(dataset)))
}

/// `<dataset>-<kind>.snap`, lowercase alphanumerics and dashes of both
/// (`rand256-isax2.snap`); the stem names the served index.
pub fn index_snapshot(dir: &Path, dataset: &str, kind: &str) -> PathBuf {
    dir.join(format!("{}-{}{SNAPSHOT}", sanitize(dataset), sanitize(kind)))
}

/// `shard-<s>`: the directory one `hydra-serve --shard-role worker` boots.
pub fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}"))
}

/// `gt-<016x>.snap`: the exact answers cached under `fingerprint`.
pub fn ground_truth_cache(dir: &Path, fingerprint: u64) -> PathBuf {
    dir.join(format!("{GROUND_TRUTH}{fingerprint:016x}{SNAPSHOT}"))
}

/// The ingest journal of the base snapshot `x.snap`: `x.snap.journal`.
pub fn journal_path(snapshot: &Path) -> PathBuf {
    with_suffix(snapshot, JOURNAL)
}

/// The store-ordered raw series of the index snapshot `x.snap`:
/// `x.snap.series`.
pub fn sidecar_series_path(snapshot: &Path) -> PathBuf {
    with_suffix(snapshot, SERIES)
}

/// The coded pages of the flat file `backing` under a non-f32 codec:
/// `<backing>.<codec>`, one per codec.
pub fn coded_sidecar_path(backing: &Path, codec: PageCodec) -> PathBuf {
    with_suffix(backing, codec.name())
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(format!(".{suffix}"));
    PathBuf::from(name)
}

fn sanitize(s: &str) -> String {
    s.chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
        .collect::<String>()
        .to_ascii_lowercase()
}

/// What one file of a snapshot directory is, by its name alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry<'a> {
    /// A dataset snapshot, holding the dataset's name.
    Dataset(&'a str),
    /// An index snapshot, holding its stem (`<dataset>-<kind>`).
    Index(&'a str),
    /// A journal or sidecar of a snapshot here, or a ground-truth cache.
    Known,
    /// A name no writer of this layout makes.
    Foreign,
}

/// Reads a file name back into the [`Entry`] of the function that built it.
pub fn classify(file_name: &str) -> Entry<'_> {
    if let Some(dataset) = file_name.strip_suffix(DATASET) {
        return Entry::Dataset(dataset);
    }
    if let Some(stem) = file_name.strip_suffix(SNAPSHOT) {
        let fingerprint = stem.strip_prefix(GROUND_TRUTH).unwrap_or_default();
        let cache = fingerprint.len() == 16 && fingerprint.bytes().all(|b| b.is_ascii_hexdigit());
        return if cache { Entry::Known } else { Entry::Index(stem) };
    }
    let index = |name| matches!(classify(name), Entry::Index(_));
    let known = match file_name.rsplit_once('.') {
        Some((base, JOURNAL | SERIES)) => index(base),
        Some((base, codec)) => {
            let series_of = base.strip_suffix(SERIES).and_then(|b| b.strip_suffix('.'));
            PageCodec::parse(codec).is_ok()
                && (matches!(classify(base), Entry::Dataset(_)) || series_of.is_some_and(index))
        }
        None => false,
    };
    if known { Entry::Known } else { Entry::Foreign }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_written_name_classifies_as_its_writer() {
        let dir = Path::new("/snaps");
        let index = index_snapshot(dir, "sift-like", "va+file");
        let dataset = dataset_snapshot(dir, "sift-like");
        let series = sidecar_series_path(&index);
        let rows: [(PathBuf, &str, Entry<'_>); 9] = [
            (dataset.clone(), "sift-like.data.snap", Entry::Dataset("sift-like")),
            (index.clone(), "sift-like-vafile.snap", Entry::Index("sift-like-vafile")),
            (journal_path(&index), "sift-like-vafile.snap.journal", Entry::Known),
            (series.clone(), "sift-like-vafile.snap.series", Entry::Known),
            (coded_sidecar_path(&series, PageCodec::U8), "sift-like-vafile.snap.series.u8", Entry::Known),
            (coded_sidecar_path(&series, PageCodec::F16), "sift-like-vafile.snap.series.f16", Entry::Known),
            (coded_sidecar_path(&dataset, PageCodec::U8), "sift-like.data.snap.u8", Entry::Known),
            (coded_sidecar_path(&dataset, PageCodec::F16), "sift-like.data.snap.f16", Entry::Known),
            (ground_truth_cache(dir, 0xff), "gt-00000000000000ff.snap", Entry::Known),
        ];
        for (path, name, entry) in &rows {
            assert_eq!(path, &dir.join(name));
            assert_eq!(classify(name), *entry, "{name}");
        }
        assert_eq!(shard_dir(dir, 3), Path::new("/snaps/shard-3"));
    }

    #[test]
    fn names_no_writer_makes_are_foreign() {
        for name in [
            "notes.txt",
            "x.snap.tmp.1.0",
            "x.data.snap.tmp.7.2",
            "x.snap.u16",
            "notes.txt.u8",
            "x.data.snap.journal",
            "gt-00000000000000ff.snap.journal",
            "x.snap.series.series",
            "x.series",
            "snap",
        ] {
            assert_eq!(classify(name), Entry::Foreign, "{name}");
        }
        // A stem that only looks like a ground-truth cache is an index.
        assert_eq!(classify("gt-00ff.snap"), Entry::Index("gt-00ff"));
        assert_eq!(classify("rand256-dstree.snap"), Entry::Index("rand256-dstree"));
    }

    #[test]
    fn snapshot_file_names_are_filesystem_safe_and_distinct() {
        let dir = Path::new("/snaps");
        let isax = index_snapshot(dir, "rand256", "isax2+");
        assert_eq!(isax, Path::new("/snaps/rand256-isax2.snap"));
        let va = index_snapshot(dir, "sift-like", "va+file");
        assert_eq!(va, Path::new("/snaps/sift-like-vafile.snap"));
        assert_ne!(isax, index_snapshot(dir, "rand256", "dstree"));
        assert_eq!(dataset_snapshot(dir, "rand256"), Path::new("/snaps/rand256.data.snap"));
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
}
