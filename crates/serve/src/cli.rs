//! The house CLI style, written once for the `hydra-serve` binary and
//! `hydra-bench`'s figure binaries, `serve_client` and `hydra_stat`: a
//! command line is a table of [`Flag`] rows run through [`parse`]. Both
//! `--flag VALUE` and `--flag=VALUE` spellings are accepted, and anything
//! unusable — a typo, a missing value, a duplicate flag — is an error,
//! never a silent fallback. The "accepted: …" line of the unknown-flag
//! error is generated from the rows, so a flag cannot be parsed but
//! undocumented; the storage flags the binaries share are three rows
//! ([`StorageFlags::flags`]) spliced into the caller's table.

/// One row of a flag table: how one flag of a command line lands in `T`.
pub struct Flag<T> {
    /// The flag as typed, dashes included.
    pub name: &'static str,
    value: Option<&'static str>,
    set: fn(&mut T, &str) -> Result<(), String>,
}

impl<T> Flag<T> {
    /// A row: the flag as typed, the placeholder of its value in the
    /// "accepted: …" line (`N`, `DIR`, `u8|f16|f32`; `None` for a switch
    /// that takes no value), and how one occurrence is applied (a switch
    /// is handed the empty string).
    pub const fn new(
        name: &'static str,
        value: Option<&'static str>,
        set: fn(&mut T, &str) -> Result<(), String>,
    ) -> Self {
        Self { name, value, set }
    }
}

/// Parses `args` against `table` into `out`; returns the flags seen, for
/// the caller's cross-flag rules.
///
/// # Errors
/// A flag given twice, a value flag at the end of the line, whatever a
/// row's `set` rejects, or an argument no row matches — that message
/// lists every row of the table.
pub fn parse<T>(
    args: &[String],
    table: &[Flag<T>],
    out: &mut T,
) -> Result<Vec<&'static str>, String> {
    let mut seen = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        let matched = table.iter().find_map(|flag| {
            let value = if flag.value.is_some() {
                value_of(arg, flag.name, &mut rest)?
            } else if arg == flag.name {
                Ok(String::new())
            } else {
                return None;
            };
            Some((flag, value))
        });
        let Some((flag, value)) = matched else {
            let accepted: Vec<String> = table
                .iter()
                .map(|flag| match flag.value {
                    Some(value) => format!("{} {value}", flag.name),
                    None => flag.name.to_string(),
                })
                .collect();
            return Err(format!(
                "unrecognized argument {arg:?} (accepted: {})",
                accepted.join(", ")
            ));
        };
        once(flag.name, &mut seen)?;
        (flag.set)(out, &value?)?;
    }
    Ok(seen)
}

/// Matches the current argument against `--name VALUE` / `--name=VALUE`.
///
/// Returns `None` if `arg` is not this flag at all; `Some(Ok(value))` on a
/// match; `Some(Err(message))` when the space-separated spelling has no
/// value left in `rest`.
fn value_of(
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
fn once(name: &'static str, seen: &mut Vec<&'static str>) -> Result<(), String> {
    if seen.contains(&name) {
        return Err(format!("{name} given more than once"));
    }
    seen.push(name);
    Ok(())
}

/// How a command line ends when it cannot go on: `error: <msg>` on stderr,
/// exit status 2.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The value of a flag that counts something: an integer above zero.
pub fn positive<N>(name: &str, value: &str) -> Result<N, String>
where
    N: std::str::FromStr + PartialOrd + Default,
{
    match value.parse::<N>() {
        Ok(n) if n > N::default() => Ok(n),
        _ => Err(format!("{name} expects a positive integer, got {value:?}")),
    }
}

/// The value of a flag naming a place (a path, an address): anything but
/// the empty string, which fails with `expects`.
pub fn non_empty(value: &str, expects: &str) -> Result<String, String> {
    if value.is_empty() {
        return Err(expects.into());
    }
    Ok(value.to_string())
}

/// The storage flags the figure binaries and `hydra-serve` share —
/// `--pool-pages N`, `--out-of-core`, `--page-codec u8|f16|f32` — parsed,
/// de-duplicated and cross-checked here once, so the two command lines
/// cannot drift.
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
}

impl AsMut<StorageFlags> for StorageFlags {
    fn as_mut(&mut self) -> &mut StorageFlags {
        self
    }
}

impl StorageFlags {
    /// The group's three rows, for any command line that holds a
    /// [`StorageFlags`].
    pub fn flags<T: AsMut<StorageFlags>>() -> [Flag<T>; 3] {
        [
            Flag::new("--pool-pages", Some("N"), |t: &mut T, v| {
                let pages = v.parse().map_err(|_| {
                    format!("--pool-pages expects a non-negative integer, got {v:?}")
                })?;
                t.as_mut().pool_pages = Some(pages);
                Ok(())
            }),
            Flag::new("--out-of-core", None, |t: &mut T, _| {
                t.as_mut().out_of_core = true;
                Ok(())
            }),
            Flag::new("--page-codec", Some("u8|f16|f32"), |t: &mut T, v| {
                t.as_mut().page_codec = hydra::PageCodec::parse(v)
                    .map_err(|_| format!("--page-codec expects u8, f16 or f32, got {v:?}"))?;
                Ok(())
            }),
        ]
    }

    /// The cross-flag rule: the codec shapes only how a *file-backed*
    /// store moves its pages, so naming a non-default one without
    /// `--out-of-core` would silently measure nothing.
    pub fn validate(&self) -> Result<(), String> {
        if !self.out_of_core && self.page_codec != hydra::PageCodec::F32 {
            return Err("--page-codec u8/f16 requires --out-of-core (a resident store holds \
                        the exact f32 values and has no coded pages to scan)"
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

    #[test]
    fn a_table_parses_both_spellings_once_each_and_documents_every_row() {
        #[derive(Debug, Default, PartialEq)]
        struct Out {
            dir: String,
            n: u32,
            dry: bool,
        }
        let table = [
            Flag::new("--dir", Some("DIR"), |o: &mut Out, v| {
                non_empty(v, "--dir expects a path").map(|dir| o.dir = dir)
            }),
            Flag::new("--n", Some("N"), |o: &mut Out, v| {
                positive("--n", v).map(|n| o.n = n)
            }),
            Flag::new("--dry-run", None, |o: &mut Out, _| {
                o.dry = true;
                Ok(())
            }),
        ];
        let run = |v: &[&str]| {
            let mut out = Out::default();
            parse(&args(v), &table, &mut out).map(|seen| (out, seen))
        };
        let (out, seen) = run(&["--n=3", "--dry-run", "--dir", "/d"]).unwrap();
        assert_eq!(
            out,
            Out {
                dir: "/d".into(),
                n: 3,
                dry: true
            }
        );
        assert_eq!(
            seen,
            ["--n", "--dry-run", "--dir"],
            "seen is command-line order"
        );
        assert_eq!(run(&["--n", "3"]).unwrap().0.n, 3);
        assert_eq!(run(&[]).unwrap(), (Out::default(), vec![]));
        // Duplicates in either spelling, a missing value, a rejected value,
        // a value handed to a switch.
        assert_eq!(
            run(&["--n=1", "--n", "2"]).unwrap_err(),
            "--n given more than once"
        );
        assert_eq!(
            run(&["--dry-run", "--dry-run"]).unwrap_err(),
            "--dry-run given more than once"
        );
        assert_eq!(run(&["--dir"]).unwrap_err(), "--dir requires a value");
        assert_eq!(run(&["--dir="]).unwrap_err(), "--dir expects a path");
        assert_eq!(
            run(&["--n", "0"]).unwrap_err(),
            "--n expects a positive integer, got \"0\""
        );
        assert!(run(&["--dry-run=yes"])
            .unwrap_err()
            .starts_with("unrecognized argument"));
        // A duplicate is reported before the second occurrence's own fault.
        assert_eq!(
            run(&["--n=1", "--n"]).unwrap_err(),
            "--n given more than once"
        );
        // The unknown-flag line is generated from the rows: all of them.
        assert_eq!(
            run(&["--nn", "3"]).unwrap_err(),
            "unrecognized argument \"--nn\" (accepted: --dir DIR, --n N, --dry-run)"
        );
        let mut flags = StorageFlags::default();
        let unknown = parse(&args(&["-x"]), &StorageFlags::flags(), &mut flags).unwrap_err();
        for row in StorageFlags::flags::<StorageFlags>() {
            assert!(
                unknown.contains(row.name),
                "{} is parsed but undocumented",
                row.name
            );
        }
    }

    /// Parses `v` as storage flags only, then applies the cross-flag rules.
    fn storage_flags(v: &[&str]) -> Result<StorageFlags, String> {
        let mut flags = StorageFlags::default();
        parse(&args(v), &StorageFlags::flags(), &mut flags)?;
        flags.validate().map(|()| flags)
    }

    #[test]
    fn storage_flags_parse_once_each_and_require_out_of_core() {
        assert_eq!(storage_flags(&[]), Ok(StorageFlags::default()));
        let f = storage_flags(&["--out-of-core", "--pool-pages=2", "--page-codec", "u8"]).unwrap();
        assert_eq!(f.pool_pages, Some(2));
        assert_eq!(f.page_codec, hydra::PageCodec::U8);
        let storage = f.storage(false);
        assert_eq!(storage, hydra::StorageConfig::on_disk()
            .with_pool_pages(2)
            .with_page_codec(hydra::PageCodec::U8));
        assert_eq!(storage_flags(&[]).unwrap().storage(true), hydra::StorageConfig::in_memory());
        // The defaults may be spelled out without --out-of-core.
        assert!(storage_flags(&["--page-codec", "f32", "--pool-pages", "0"]).is_ok());
        // Values, duplicates, and a switch that takes no value.
        for bad in [
            &["--pool-pages", "lots"][..],
            &["--pool-pages"],
            &["--page-codec", "mp3"],
            &["--out-of-core", "--out-of-core"],
            &["--pool-pages=1", "--pool-pages=2"],
            &["--out-of-core=yes"],
            &["--page-codec=u8"],
            &["--page-codec=f16", "--pool-pages=4"],
        ] {
            assert!(storage_flags(bad).is_err(), "{bad:?}");
        }
        assert!(storage_flags(&["--page-codec=u8"]).unwrap_err().contains("requires --out-of-core"));
    }
}
