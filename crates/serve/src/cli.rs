//! Scaffolding for the house CLI style, shared by the `hydra-serve`
//! binary and `hydra-bench`'s figure binaries and `serve_client`: both
//! `--flag VALUE` and `--flag=VALUE` spellings are accepted, and anything
//! unusable — a typo, a missing value, a duplicate flag — is an error,
//! never a silent fallback. Keeping the parsers on one scaffold — and the
//! storage flags they share in one group, [`StorageFlags`] — means a
//! future fix cannot drift between them.

/// Matches the current argument against `--name VALUE` / `--name=VALUE`.
///
/// Returns `None` if `arg` is not this flag at all; `Some(Ok(value))` on a
/// match; `Some(Err(message))` when the space-separated spelling has no
/// value left in `rest`.
pub fn value_of(
    arg: &str,
    name: &str,
    rest: &mut std::slice::Iter<'_, String>,
) -> Option<Result<String, String>> {
    if arg == name {
        Some(
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value")),
        )
    } else {
        arg.strip_prefix(name)
            .and_then(|r| r.strip_prefix('='))
            .map(|v| Ok(v.to_string()))
    }
}

/// Records one occurrence of `name`, erroring on a duplicate.
pub fn once(name: &'static str, seen: &mut Vec<&'static str>) -> Result<(), String> {
    if seen.contains(&name) {
        return Err(format!("{name} given more than once"));
    }
    seen.push(name);
    Ok(())
}

/// The storage flags the figure binaries and `hydra-serve` share —
/// `--pool-pages N`, `--out-of-core`, `--page-codec u8|f16|f32`,
/// `--backing pread|mmap` — parsed, de-duplicated and cross-checked here
/// once, so the two command lines cannot drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StorageFlags {
    /// Buffer-pool capacity override in pages (`--pool-pages N`); `None`
    /// keeps the scenario's default.
    pub pool_pages: Option<usize>,
    /// Serve raw series file-backed through a real page cache instead of
    /// resident (`--out-of-core`).
    pub out_of_core: bool,
    /// Codec of the file-backed raw-series tier (`--page-codec`, default
    /// `f32`): u8/f16 pages are ~4×/~2× smaller, pruning runs on the
    /// codes, and every returned distance is refined on exact f32 values.
    pub page_codec: hydra::PageCodec,
    /// How a file-backed store transfers page bytes (`--backing`, default
    /// `pread`).
    pub backing_io: hydra::FileIoMode,
}

/// One row of the storage-flag table: the flag, whether it takes a value,
/// and how a (validated) occurrence lands in [`StorageFlags`].
type StorageFlag = (&'static str, bool, fn(&mut StorageFlags, &str) -> Result<(), String>);

const STORAGE_FLAGS: [StorageFlag; 4] = [
    ("--pool-pages", true, |flags, value| {
        flags.pool_pages = Some(value.parse().map_err(|_| {
            format!("--pool-pages expects a non-negative integer, got {value:?}")
        })?);
        Ok(())
    }),
    ("--out-of-core", false, |flags, _| {
        flags.out_of_core = true;
        Ok(())
    }),
    ("--page-codec", true, |flags, value| {
        flags.page_codec = hydra::PageCodec::parse(value)
            .map_err(|_| format!("--page-codec expects u8, f16 or f32, got {value:?}"))?;
        Ok(())
    }),
    ("--backing", true, |flags, value| {
        flags.backing_io = hydra::FileIoMode::parse(value)
            .ok_or_else(|| format!("--backing expects pread or mmap, got {value:?}"))?;
        Ok(())
    }),
];

impl StorageFlags {
    /// The group's flag names, for role checks.
    pub fn names() -> impl Iterator<Item = &'static str> {
        STORAGE_FLAGS.iter().map(|&(name, ..)| name)
    }

    /// The group's share of an "accepted flags" usage line.
    pub const USAGE: &'static str =
        "--pool-pages N, --out-of-core, --page-codec u8|f16|f32, --backing pread|mmap";

    /// Offers `arg` to the group. `None` if it is not a storage flag;
    /// otherwise the flag is consumed (with its value, from `rest` for the
    /// space-separated spelling), recorded in `seen`, and applied.
    pub fn accept(
        &mut self,
        arg: &str,
        rest: &mut std::slice::Iter<'_, String>,
        seen: &mut Vec<&'static str>,
    ) -> Option<Result<(), String>> {
        STORAGE_FLAGS.iter().find_map(|&(name, takes_value, set)| {
            let value = if takes_value {
                value_of(arg, name, rest)?
            } else if arg == name {
                Ok(String::new())
            } else {
                return None;
            };
            Some(once(name, seen).and_then(|()| set(self, &value?)))
        })
    }

    /// The cross-flag rules: the codec and the I/O mode shape only how a
    /// *file-backed* store moves its pages, so naming a non-default one
    /// without `--out-of-core` would silently measure nothing.
    pub fn validate(&self) -> Result<(), String> {
        if self.out_of_core {
            return Ok(());
        }
        if self.page_codec != hydra::PageCodec::F32 {
            return Err("--page-codec u8/f16 requires --out-of-core (a resident store holds \
                        the exact f32 values and has no coded pages to scan)"
                .into());
        }
        if self.backing_io != hydra::FileIoMode::Pread {
            return Err("--backing mmap requires --out-of-core (a resident store does no file \
                        I/O to transfer differently)"
                .into());
        }
        Ok(())
    }

    /// The storage configuration the flags select: the scenario's default
    /// with the serving knobs applied.
    pub fn storage(&self, in_memory: bool) -> hydra::StorageConfig {
        let storage = if in_memory {
            hydra::StorageConfig::in_memory()
        } else {
            hydra::StorageConfig::on_disk()
        };
        self.pool_pages
            .map_or(storage, |pages| storage.with_pool_pages(pages))
            .with_page_codec(self.page_codec)
            .with_io_mode(self.backing_io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn both_spellings_match_and_others_do_not() {
        let rest_args = args(&["VALUE"]);
        let mut rest = rest_args.iter();
        assert_eq!(value_of("--x", "--x", &mut rest), Some(Ok("VALUE".into())));
        assert!(rest.next().is_none(), "the space spelling consumes the value");
        let mut rest = [].iter();
        assert_eq!(value_of("--x=7", "--x", &mut rest), Some(Ok("7".into())));
        assert_eq!(value_of("--x=", "--x", &mut rest), Some(Ok(String::new())));
        // A different flag sharing the prefix is NOT a match.
        assert_eq!(value_of("--xy=7", "--x", &mut rest), None);
        assert_eq!(value_of("--y", "--x", &mut rest), None);
        // Missing value is an error, not a silent skip.
        assert!(matches!(value_of("--x", "--x", &mut [].iter()), Some(Err(_))));
    }

    #[test]
    fn once_rejects_duplicates() {
        let mut seen = Vec::new();
        assert!(once("--x", &mut seen).is_ok());
        assert!(once("--y", &mut seen).is_ok());
        assert!(once("--x", &mut seen).is_err());
    }

    /// Parses `v` as storage flags only, then applies the cross-flag rules.
    fn storage_flags(v: &[&str]) -> Result<StorageFlags, String> {
        let (mut flags, mut seen) = (StorageFlags::default(), Vec::new());
        let argv = args(v);
        let mut rest = argv.iter();
        while let Some(arg) = rest.next() {
            flags
                .accept(arg, &mut rest, &mut seen)
                .unwrap_or_else(|| Err(format!("unrecognized argument {arg:?}")))?;
        }
        flags.validate().map(|()| flags)
    }

    #[test]
    fn storage_flags_parse_once_each_and_require_out_of_core() {
        assert_eq!(storage_flags(&[]), Ok(StorageFlags::default()));
        let f = storage_flags(&["--out-of-core", "--pool-pages=2", "--page-codec", "u8", "--backing=mmap"])
            .unwrap();
        assert_eq!(f.pool_pages, Some(2));
        assert_eq!(f.page_codec, hydra::PageCodec::U8);
        assert_eq!(f.backing_io, hydra::FileIoMode::Mmap);
        let storage = f.storage(false);
        assert_eq!(storage, hydra::StorageConfig::on_disk()
            .with_pool_pages(2)
            .with_page_codec(hydra::PageCodec::U8)
            .with_io_mode(hydra::FileIoMode::Mmap));
        assert_eq!(storage_flags(&[]).unwrap().storage(true), hydra::StorageConfig::in_memory());
        // The defaults may be spelled out without --out-of-core.
        assert!(storage_flags(&["--page-codec", "f32", "--backing", "pread", "--pool-pages", "0"]).is_ok());
        // Values, duplicates, and a switch that takes no value.
        for bad in [
            &["--pool-pages", "lots"][..],
            &["--pool-pages"],
            &["--page-codec", "mp3"],
            &["--backing", "dma"],
            &["--out-of-core", "--out-of-core"],
            &["--pool-pages=1", "--pool-pages=2"],
            &["--out-of-core=yes"],
            &["--page-codec=u8"],
            &["--page-codec=f16", "--pool-pages=4"],
            &["--backing=mmap"],
        ] {
            assert!(storage_flags(bad).is_err(), "{bad:?}");
        }
        assert!(storage_flags(&["--page-codec=u8"]).unwrap_err().contains("requires --out-of-core"));
        assert!(storage_flags(&["--backing=mmap"]).unwrap_err().contains("requires --out-of-core"));
    }
}
