//! Kind-tag dispatch: load *any* snapshot behind the uniform
//! [`AnnIndex`] interface.
//!
//! [`PersistentIndex::load`] is statically typed — the caller must already
//! know which index a file holds. A serving process does not: it is handed
//! a directory of snapshots and must boot whatever lives there. The
//! [`LoaderRegistry`] closes that gap. Each index kind is registered once,
//! together with the build configuration its snapshots are expected to
//! match; [`LoaderRegistry::load_any`] then reads the kind tag out of a
//! file's (fully validated) header and dispatches to the matching loader.
//!
//! All of the snapshot machinery's loudness carries over unchanged: a
//! damaged file, a wrong build configuration or a wrong dataset still
//! fails with the corresponding typed [`PersistError`], and a snapshot of
//! a kind nobody registered fails with [`PersistError::UnknownKind`] —
//! a server can never silently serve an index it does not understand.

use std::collections::BTreeMap;
use std::path::Path;

use hydra_core::AnnIndex;

use crate::error::{PersistError, Result};
use crate::snapshot::peek_kind;
use crate::stream::DataSource;
use crate::{PersistentIndex, StoreBacking};

/// A type-erased snapshot loader: `(path, source, backing) -> boxed index`.
/// The [`DataSource`] keeps the dispatch lazy-capable — a loader whose
/// index does not ask for [`DataSource::materialized`] never materializes a
/// streamed dataset.
pub type BoxedLoader = Box<
    dyn for<'a> Fn(&Path, DataSource<'a>, StoreBacking<'a>) -> Result<Box<dyn AnnIndex>>
        + Send
        + Sync,
>;

/// Maps snapshot kind tags to loaders, so callers can restore a directory
/// of heterogeneous snapshots without knowing statically what each file
/// holds (see the module docs).
#[derive(Default)]
pub struct LoaderRegistry {
    loaders: BTreeMap<String, BoxedLoader>,
}

impl std::fmt::Debug for LoaderRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoaderRegistry")
            .field("kinds", &self.kinds())
            .finish()
    }
}

impl LoaderRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the loader of index type `T` under [`PersistentIndex::KIND`],
    /// capturing the build configuration its snapshots must fingerprint-match.
    ///
    /// Registering the same kind again replaces the previous entry (last
    /// writer wins), so a caller can override one configuration of a
    /// standard registry.
    pub fn register<T>(&mut self, config: T::Config)
    where
        T: AnnIndex + PersistentIndex + 'static,
        T::Config: Send + Sync + 'static,
    {
        self.loaders.insert(
            T::KIND.to_string(),
            Box::new(move |path, source, backing| {
                Ok(Box::new(T::load_from(path, source, &config, backing)?) as Box<dyn AnnIndex>)
            }),
        );
    }

    /// The registered kind tags, sorted.
    pub fn kinds(&self) -> Vec<&str> {
        self.loaders.keys().map(|k| k.as_str()).collect()
    }

    /// Whether a loader for `kind` is registered.
    pub fn contains(&self, kind: &str) -> bool {
        self.loaders.contains_key(kind)
    }

    /// [`LoaderRegistry::load_any_backed`] with the raw series resident.
    ///
    /// # Errors
    /// Exactly [`LoaderRegistry::load_any_backed`]'s.
    pub fn load_any<'a>(
        &self,
        path: &Path,
        source: impl Into<DataSource<'a>>,
    ) -> Result<Box<dyn AnnIndex>> {
        self.load_any_backed(path, source, StoreBacking::Resident)
    }

    /// Reads the kind tag out of the snapshot's header
    /// ([`peek_kind`] — cheap, no section is loaded or checksummed) and
    /// loads the file with the registered loader, re-attaching the raw
    /// series of `source` — a `&Dataset`, or a streamed [`DataSource`],
    /// with which a disk-capable index boots without the dataset ever being
    /// materialized (the lazy boot entry point; memory-only indexes load it
    /// through [`DataSource::materialized`]). Full container validation
    /// happens exactly once, inside the dispatched loader.
    ///
    /// [`StoreBacking::FileBacked`] makes every disk-capable index serve
    /// its raw series out-of-core through a real page cache (memory-only
    /// indexes ignore the choice — they hold no series store).
    ///
    /// # Errors
    /// [`PersistError::UnknownKind`] if no loader was registered for the
    /// file's kind; otherwise whatever the dispatched
    /// [`PersistentIndex::load_from`] reports (I/O, damage, fingerprint or
    /// kind mismatches, failures creating or validating the backing files
    /// or reading a streamed source).
    pub fn load_any_backed<'a>(
        &self,
        path: &Path,
        source: impl Into<DataSource<'a>>,
        backing: StoreBacking<'_>,
    ) -> Result<Box<dyn AnnIndex>> {
        let kind = peek_kind(path)?;
        let loader = self.loaders.get(&kind).ok_or_else(|| PersistError::UnknownKind {
            found: kind,
            registered: self.loaders.keys().cloned().collect(),
        })?;
        loader(path, source.into(), backing)
    }

    /// [`LoaderRegistry::load_any_backed`], then replays the ingest
    /// journal beside the snapshot ([`crate::journal_path`]) if one
    /// exists — the incremental-snapshot load path. The journal is fully
    /// validated (header, record checksums, base-fingerprint pin) before
    /// a single batch is applied, so a damaged journal yields its typed
    /// error and **no index**, never a partially replayed one.
    ///
    /// # Errors
    /// Everything [`LoaderRegistry::load_any_backed`] reports, plus the
    /// journal's own typed errors (see [`crate::JournalReader`]).
    pub fn load_any_journaled<'a>(
        &self,
        path: &Path,
        source: impl Into<DataSource<'a>>,
        backing: StoreBacking<'_>,
    ) -> Result<Box<dyn AnnIndex>> {
        let journal = crate::journal_path(path);
        if !journal.exists() {
            return self.load_any_backed(path, source, backing);
        }
        let reader = crate::JournalReader::open(&journal)?;
        let mut index = self.load_any_backed(path, source, backing)?;
        reader.replay(index.as_mut(), crate::peek_fingerprint(path)?)?;
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotWriter;
    use hydra_core::Dataset;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hydra-registry-{}-{name}", std::process::id()))
    }

    // The real zoo registers through the facade crate; here a registry is
    // exercised with no loaders at all, which is enough to pin the
    // dispatch-side behavior (`register` itself is compile-checked by the
    // serve/bench layers that depend on concrete index crates).
    #[test]
    fn unknown_kind_is_a_typed_error_listing_the_registered_kinds() {
        let registry = LoaderRegistry::new();
        assert!(registry.kinds().is_empty());
        assert!(!registry.contains("isax2+"));
        let path = temp_path("unknown.snap");
        SnapshotWriter::new("mystery-kind", 7).write_to(&path).unwrap();
        let data = Dataset::from_series(2, &[[0.0f32, 1.0]]).unwrap();
        match registry.load_any(&path, &data) {
            Err(PersistError::UnknownKind { found, registered }) => {
                assert_eq!(found, "mystery-kind");
                assert!(registered.is_empty());
            }
            Err(other) => panic!("expected UnknownKind, got {other:?}"),
            Ok(_) => panic!("an unregistered kind must not load"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_files_fail_before_dispatch() {
        let registry = LoaderRegistry::new();
        let path = temp_path("damaged.snap");
        std::fs::write(&path, b"not a snapshot at all").unwrap();
        let data = Dataset::from_series(2, &[[0.0f32, 1.0]]).unwrap();
        assert!(matches!(
            registry.load_any(&path, &data),
            Err(PersistError::BadMagic)
        ));
        assert!(matches!(
            registry.load_any(Path::new("/nonexistent/x.snap"), &data),
            Err(PersistError::Io(_))
        ));
        std::fs::remove_file(&path).ok();
        let dbg = format!("{registry:?}");
        assert!(dbg.contains("LoaderRegistry"));
    }
}
