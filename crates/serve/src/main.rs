//! The `hydra-serve` binary: boot the index zoo from a snapshot directory
//! and serve it until a shutdown frame arrives — standalone, as one shard
//! worker of a scale-out deployment, or as the router in front of the
//! workers.
//!
//! ```text
//! # standalone server, or one shard worker (the same thing: a worker is
//! # just a server booted from one shard's snapshot directory)
//! hydra-serve --snapshots DIR [--addr 127.0.0.1:7878]
//!             [--shard-role worker]
//!             [--storage on-disk|in-memory] [--seed N]
//!             [--pool-pages N] [--out-of-core [--page-codec u8|f16|f32]
//!                                               [--backing pread|mmap]]
//!             [--batch-window-ms N] [--max-batch N]
//!             [--slow-query-ms N]
//!
//! # the router: no snapshots of its own, speaks the same protocol to
//! # clients and fans each query out to the workers (in shard order)
//! hydra-serve --shard-role router --workers HOST:PORT,HOST:PORT,...
//!             [--addr 127.0.0.1:7878]
//!             [--worker-timeout-ms 30000] [--worker-connect-timeout-ms 120000]
//!             [--shard-scheme contiguous|strided]
//! ```
//!
//! `--seed` selects the `hydra::standard_registry` configuration the
//! snapshots must fingerprint-match: use `5` for `fig4_ondisk --save-index`
//! directories (the default) and `3` for `fig3_inmemory` ones. A mismatch
//! fails at boot with the offending file named — the server never guesses.
//! `--storage` is not checked against anything: no part of the storage
//! configuration — page size, pool, codec, backing — is fingerprinted, and
//! the flag only picks the default pool size (`on-disk`, the default, a
//! 128-page pool; `in-memory`, one that holds everything).
//!
//! `--out-of-core` serves raw series from the snapshot files themselves
//! through a real page cache instead of holding them resident, and
//! `--pool-pages N` bounds that cache — together they let a boot serve
//! collections whose raw series far exceed the configured pool. Answers
//! are byte-identical to a resident boot.
//!
//! `--page-codec u8|f16|f32` (default `f32`; u8/f16 require
//! `--out-of-core` — a resident store holds the exact values and has no
//! coded pages) serves the booted indexes' file-backed raw-series tier
//! quantized: pages hold u8 or f16 codes with per-page
//! min/scale headers, candidate pruning runs fused decode+distance
//! kernels, and every returned distance is refined against the exact f32
//! series — answers stay byte-identical while each page read moves ~4×
//! (`u8`) or ~2× (`f16`) fewer bytes. The coded traffic is scrapeable as
//! the `hydra_store` gauge with the `compressed_bytes_read` label.
//!
//! In router mode, `--workers` lists the shard workers *in shard order*
//! (worker `w` must serve shard `w` of every index — the per-shard
//! subdirectories a `fig* --save-index DIR --shards S` run writes), and
//! `--shard-scheme` must name the scheme that run partitioned with.
//! `--worker-timeout-ms` bounds every call to a worker; a worker that dies
//! or stalls turns its in-flight queries into typed `Unavailable` error
//! responses, never a hang, and is reconnected with exponential backoff.
//!
//! `--slow-query-ms N` (worker role, off by default) logs one structured
//! stderr line per query whose served latency — queue wait plus its
//! amortized share of the batched search plus response encoding — reaches
//! `N` milliseconds, with a per-stage breakdown. Both roles answer stats
//! frames with a Prometheus text scrape of their registry (see the
//! `hydra_stat` binary in `hydra-bench`).
//!
//! All diagnostics go to stderr; stdout is never written, so the binary
//! composes with shell pipelines the same way the figure binaries do.

use std::time::Duration;

use hydra::PartitionScheme;
use hydra_serve::cli::{fail, non_empty, parse, positive, Flag, StorageFlags};
use hydra_serve::{boot_from_dir_with, Router, RouterConfig, Server, ServerConfig};

/// Heap-tracking allocator: the price is two relaxed atomics per
/// allocation, and the payoff is the `hydra_boot_peak_heap_bytes` gauge —
/// the measurement that keeps the out-of-core boot honest about *never*
/// materializing a dataset (CI pins it below the dataset size).
#[global_allocator]
static ALLOC: hydra_obs::TrackingAllocator = hydra_obs::TrackingAllocator;

/// Which half of a scale-out deployment this process is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// A plain server (the default) — also exactly what a shard worker is.
    Worker,
    /// The fan-out/merge router in front of shard workers.
    Router,
}

/// Parsed command-line configuration.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    role: Role,
    snapshots: std::path::PathBuf,
    addr: String,
    in_memory: bool,
    seed: u64,
    storage: StorageFlags,
    batch_window: Duration,
    max_batch: usize,
    slow_query: Option<Duration>,
    workers: Vec<String>,
    worker_timeout: Duration,
    worker_connect_timeout: Duration,
    scheme: PartitionScheme,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            role: Role::Worker,
            snapshots: std::path::PathBuf::new(),
            addr: "127.0.0.1:7878".into(),
            in_memory: false,
            seed: 5,
            storage: StorageFlags::default(),
            batch_window: Duration::from_millis(1),
            max_batch: 64,
            slow_query: None,
            workers: Vec::new(),
            worker_timeout: Duration::from_secs(30),
            worker_connect_timeout: Duration::from_secs(120),
            scheme: PartitionScheme::Contiguous,
        }
    }
}

impl AsMut<StorageFlags> for Args {
    fn as_mut(&mut self) -> &mut StorageFlags {
        &mut self.storage
    }
}

/// A flag whose value is a positive number of milliseconds.
fn millis(name: &str, value: &str) -> Result<Duration, String> {
    positive(name, value).map(Duration::from_millis)
}

/// The flags either role takes.
const FLAGS: [Flag<Args>; 2] = [
    Flag::new("--addr", Some("HOST:PORT"), |a, v| {
        a.addr = v.to_string();
        Ok(())
    }),
    Flag::new("--shard-role", Some("worker|router"), |a, v| {
        a.role = match v {
            "worker" => Role::Worker,
            "router" => Role::Router,
            other => {
                return Err(format!(
                    "--shard-role expects worker or router, got {other:?}"
                ))
            }
        };
        Ok(())
    }),
];

/// The flags only a router takes: it alone routes to anyone.
const ROUTER_FLAGS: [Flag<Args>; 4] = [
    Flag::new("--workers", Some("HOST:PORT,..."), |a, v| {
        a.workers = v
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        if a.workers.is_empty() {
            return Err("--workers expects a comma-separated list of HOST:PORT".into());
        }
        Ok(())
    }),
    Flag::new("--worker-timeout-ms", Some("N"), |a, v| {
        millis("--worker-timeout-ms", v).map(|timeout| a.worker_timeout = timeout)
    }),
    Flag::new("--worker-connect-timeout-ms", Some("N"), |a, v| {
        millis("--worker-connect-timeout-ms", v).map(|timeout| a.worker_connect_timeout = timeout)
    }),
    Flag::new("--shard-scheme", Some("contiguous|strided"), |a, v| {
        a.scheme = PartitionScheme::parse(v)
            .ok_or_else(|| format!("--shard-scheme expects contiguous or strided, got {v:?}"))?;
        Ok(())
    }),
];

/// The flags only a worker takes (with [`StorageFlags::flags`]): it alone
/// holds snapshots and batches.
const WORKER_FLAGS: [Flag<Args>; 6] = [
    Flag::new("--snapshots", Some("DIR"), |a, v| {
        non_empty(v, "--snapshots expects a directory path").map(|dir| a.snapshots = dir.into())
    }),
    Flag::new("--storage", Some("on-disk|in-memory"), |a, v| {
        a.in_memory = match v {
            "in-memory" => true,
            "on-disk" => false,
            other => {
                return Err(format!(
                    "--storage expects in-memory or on-disk, got {other:?}"
                ))
            }
        };
        Ok(())
    }),
    Flag::new("--seed", Some("N"), |a, v| {
        a.seed = v
            .parse()
            .map_err(|_| format!("--seed expects an integer, got {v:?}"))?;
        Ok(())
    }),
    Flag::new("--batch-window-ms", Some("N"), |a, v| {
        let ms = v
            .parse()
            .map_err(|_| format!("--batch-window-ms expects an integer, got {v:?}"))?;
        a.batch_window = Duration::from_millis(ms);
        Ok(())
    }),
    Flag::new("--max-batch", Some("N"), |a, v| {
        positive("--max-batch", v).map(|n| a.max_batch = n)
    }),
    Flag::new("--slow-query-ms", Some("N"), |a, v| {
        millis("--slow-query-ms", v).map(|threshold| a.slow_query = Some(threshold))
    }),
];

/// Strict flag parsing in the house style ([`hydra_serve::cli`], shared
/// with `hydra-bench`): both `--flag VALUE` and `--flag=VALUE` spellings,
/// and anything unusable — a typo, a bad value, a duplicate, a flag that
/// does not belong to the chosen role — is an error, never a silent
/// fallback.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let table: Vec<Flag<Args>> = FLAGS
        .into_iter()
        .chain(ROUTER_FLAGS)
        .chain(WORKER_FLAGS)
        .chain(StorageFlags::flags())
        .collect();
    let seen = parse(args, &table, &mut out)?;
    // Role/flag agreement: a router serves no snapshots of its own, a
    // worker routes to no one. A flag for the other role is a
    // misunderstanding of the topology, so it is an error, not ignored.
    let first_seen = |flags: &[Flag<Args>]| {
        let mut names = flags.iter().map(|flag| flag.name);
        names.find(|name| seen.contains(name))
    };
    match out.role {
        Role::Router => {
            if !seen.contains(&"--workers") {
                return Err("--shard-role router requires --workers HOST:PORT,...".into());
            }
            let storage = StorageFlags::flags();
            if let Some(flag) = first_seen(&WORKER_FLAGS).or_else(|| first_seen(&storage)) {
                return Err(format!(
                    "{flag} belongs to the worker role (the router holds no snapshots and does \
                     no batching of its own)"
                ));
            }
        }
        Role::Worker => {
            if !seen.contains(&"--snapshots") {
                return Err("--snapshots DIR is required".into());
            }
            if let Some(flag) = first_seen(&ROUTER_FLAGS) {
                return Err(format!("{flag} requires --shard-role router"));
            }
            out.storage.validate()?;
        }
    }
    Ok(out)
}

/// Runs the router role: resolve the worker list, boot against the
/// workers' listings, serve until shutdown.
fn run_router(args: &Args) {
    use std::net::ToSocketAddrs;
    let resolve = |spec: &String| {
        let addr = spec.to_socket_addrs().ok().and_then(|mut it| it.next());
        addr.unwrap_or_else(|| fail(&format!("cannot resolve worker address {spec:?}")))
    };
    let workers: Vec<_> = args.workers.iter().map(resolve).collect();
    let config = RouterConfig {
        worker_timeout: args.worker_timeout,
        boot_timeout: args.worker_connect_timeout,
        scheme: args.scheme,
    };
    let handle = Router::spawn(&workers, args.addr.as_str(), config)
        .unwrap_or_else(|e| fail(&format!("router boot failed: {e}")));
    eprintln!(
        "hydra-serve: routing on {} to {} workers ({:?} shards, {:?} worker timeout)",
        handle.local_addr(),
        workers.len(),
        args.scheme,
        args.worker_timeout
    );
    let stats = handle.join();
    eprintln!(
        "hydra-serve: router shutdown after {} queries ({} worker errors, {} connections)",
        stats.queries, stats.worker_errors, stats.connections
    );
}

/// Publishes one boot's per-index load telemetry: how long each snapshot
/// took to load (including journal replay) and whether a journal was
/// replayed. Gauges, not counters — a reload overwrites them with the
/// latest boot's values.
fn set_boot_gauges(metrics: &hydra_serve::MetricsRegistry, loads: &[hydra_serve::IndexLoad]) {
    for load in loads {
        let labels: &[(&str, &str)] = &[("index", load.name.as_str())];
        metrics
            .gauge("hydra_index_load_micros", labels)
            .set(load.elapsed.as_micros() as i64);
        metrics
            .gauge("hydra_index_journaled", labels)
            .set(load.journaled as i64);
    }
}

/// Runs the worker (= plain server) role: boot snapshots, serve.
fn run_worker(args: &Args) {
    let flags = args.storage;
    let registry = hydra::standard_registry(flags.storage(args.in_memory), args.seed);
    let options = hydra_serve::BootOptions {
        file_backed: flags.out_of_core,
    };
    hydra_obs::reset_heap_peak();
    let report = boot_from_dir_with(&args.snapshots, &registry, options)
        .unwrap_or_else(|e| fail(&format!("boot failed: {e}")));
    let boot_peak_heap = hydra_obs::heap_peak_bytes();
    if flags.out_of_core {
        eprintln!(
            "hydra-serve: serving out-of-core (raw series file-backed via {}{})",
            flags.backing_io.name(),
            match flags.pool_pages {
                Some(p) => format!(", pool {p} pages"),
                None => String::new(),
            }
        );
        eprintln!("hydra-serve: boot peak heap {boot_peak_heap} bytes");
    }
    if flags.page_codec != hydra::PageCodec::F32 {
        eprintln!(
            "hydra-serve: raw-series tier quantized ({} pages, exact-refined answers)",
            flags.page_codec.name()
        );
    }
    for (name, n, len) in &report.datasets {
        eprintln!("hydra-serve: dataset {name}: {n} series of length {len}");
    }
    for served in &report.indexes {
        eprintln!(
            "hydra-serve: serving {} ({}, {} series)",
            served.name,
            served.index.name(),
            served.index.num_series()
        );
    }
    for file in &report.skipped {
        eprintln!("hydra-serve: skipping {} (not a file of any dataset here)", file.display());
    }
    let config = ServerConfig {
        batch_window: args.batch_window,
        max_batch: args.max_batch,
        slow_query: args.slow_query,
    };
    let metrics = hydra_serve::MetricsRegistry::new();
    set_boot_gauges(&metrics, &report.loads);
    // The lazy-boot acceptance gauge: peak heap bytes between boot start
    // and serving. Out-of-core this must stay far below the dataset's
    // raw-series footprint — CI scrapes and pins it.
    metrics
        .gauge("hydra_boot_peak_heap_bytes", &[])
        .set(boot_peak_heap as i64);
    // A reload frame re-runs exactly this boot (same directory, same
    // registry, same backing) and swaps the zoo in as a fresh epoch —
    // picking up snapshots rewritten by an ingesting harness run. The
    // reload's own load telemetry lands in the same scrapeable registry.
    let snapshots = args.snapshots.clone();
    let reload_metrics = metrics.clone();
    let reloader: hydra_serve::Reloader = Box::new(move || {
        boot_from_dir_with(&snapshots, &registry, options)
            .map(|report| {
                set_boot_gauges(&reload_metrics, &report.loads);
                report.indexes
            })
            .map_err(|e| e.to_string())
    });
    let addr = args.addr.as_str();
    let handle = Server::spawn_with_metrics(report.indexes, addr, config, Some(reloader), metrics)
        .unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")));
    eprintln!(
        "hydra-serve: listening on {} (batch window {:?}, max batch {})",
        handle.local_addr(),
        config.batch_window,
        config.max_batch
    );
    let stats = handle.join();
    eprintln!(
        "hydra-serve: clean shutdown after {} queries in {} batch calls over {} ticks ({} connections, {} reloads)",
        stats.queries, stats.batch_calls, stats.ticks, stats.connections, stats.reloads
    );
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|msg| fail(&msg));
    match args.role {
        Role::Router => run_router(&args),
        Role::Worker => run_worker(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parser_accepts_both_spellings_and_rejects_garbage() {
        let a = parse_args(&args(&["--snapshots", "/snaps"])).unwrap();
        assert_eq!(a.snapshots, std::path::Path::new("/snaps"));
        assert_eq!(a.addr, "127.0.0.1:7878");
        assert!(!a.in_memory);
        assert_eq!(a.seed, 5);
        assert_eq!(a.role, Role::Worker);
        let a = parse_args(&args(&[
            "--snapshots=/s",
            "--addr=0.0.0.0:9000",
            "--storage=in-memory",
            "--seed=4",
            "--batch-window-ms=5",
            "--max-batch=128",
        ]))
        .unwrap();
        assert!(a.in_memory);
        assert_eq!(a.seed, 4);
        assert_eq!(a.batch_window, Duration::from_millis(5));
        assert_eq!(a.max_batch, 128);
        assert_eq!(a.addr, "0.0.0.0:9000");
        // Required, duplicate, unknown, malformed.
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--snapshots"])).is_err());
        assert!(parse_args(&args(&["--snapshots="])).is_err());
        assert!(parse_args(&args(&["--snapshots", "/a", "--snapshots", "/b"])).is_err());
        assert!(parse_args(&args(&["--snapshots", "/a", "--storage", "floppy"])).is_err());
        assert!(parse_args(&args(&["--snapshots", "/a", "--seed", "many"])).is_err());
        assert!(parse_args(&args(&["--snapshots", "/a", "--max-batch", "0"])).is_err());
        assert!(parse_args(&args(&["--snapshots", "/a", "--threads", "2"])).is_err());
        assert!(parse_args(&args(&["extra"])).is_err());
        // Out-of-core serving flags.
        let a = parse_args(&args(&[
            "--snapshots=/s",
            "--out-of-core",
            "--pool-pages=4",
        ]))
        .unwrap();
        assert!(a.storage.out_of_core);
        assert_eq!(a.storage.pool_pages, Some(4));
        let a = parse_args(&args(&["--snapshots", "/s"])).unwrap();
        assert_eq!(a.storage, StorageFlags::default());
        assert!(parse_args(&args(&["--snapshots", "/s", "--pool-pages", "lots"])).is_err());
        assert!(parse_args(&args(&["--snapshots", "/s", "--pool-pages"])).is_err());
        assert!(parse_args(&args(&[
            "--snapshots",
            "/s",
            "--out-of-core",
            "--out-of-core"
        ]))
        .is_err());
        assert!(parse_args(&args(&["--snapshots", "/s", "--out-of-core=yes"])).is_err());
        // Page-codec flag: strict values, worker-only, file-backed only —
        // the same error the figure binaries give (one shared rule).
        let a = parse_args(&args(&["--snapshots=/s", "--out-of-core", "--page-codec=u8"])).unwrap();
        assert_eq!(a.storage.page_codec, hydra::PageCodec::U8);
        let a = parse_args(&args(&["--snapshots", "/s", "--page-codec", "f32"])).unwrap();
        assert_eq!(a.storage.page_codec, hydra::PageCodec::F32);
        for (flag, value) in [("--page-codec", "u8"), ("--page-codec", "f16"), ("--backing", "mmap")] {
            let lone = StorageFlags {
                page_codec: hydra::PageCodec::parse(value).unwrap_or_default(),
                backing_io: hydra::FileIoMode::parse(value).unwrap_or_default(),
                ..StorageFlags::default()
            };
            assert_eq!(
                parse_args(&args(&["--snapshots", "/s", flag, value])),
                Err(lone.validate().unwrap_err()),
                "{flag} {value} without --out-of-core"
            );
        }
        assert!(parse_args(&args(&["--snapshots", "/s", "--page-codec", "mp3"])).is_err());
        assert!(parse_args(&args(&["--snapshots", "/s", "--page-codec"])).is_err());
        assert!(parse_args(&args(&[
            "--snapshots=/s",
            "--page-codec=u8",
            "--page-codec=u8"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--shard-role=router",
            "--workers=h:1",
            "--page-codec=u8"
        ]))
        .is_err());
        // Slow-query logging: off by default, positive ms only, worker-only.
        let a = parse_args(&args(&["--snapshots", "/s"])).unwrap();
        assert_eq!(a.slow_query, None);
        let a = parse_args(&args(&["--snapshots=/s", "--slow-query-ms=250"])).unwrap();
        assert_eq!(a.slow_query, Some(Duration::from_millis(250)));
        assert!(parse_args(&args(&["--snapshots", "/s", "--slow-query-ms", "0"])).is_err());
        assert!(parse_args(&args(&["--snapshots", "/s", "--slow-query-ms", "soon"])).is_err());
        assert!(parse_args(&args(&[
            "--shard-role=router",
            "--workers=h:1",
            "--slow-query-ms=100"
        ]))
        .is_err());
    }

    #[test]
    fn parser_understands_the_shard_roles() {
        // Worker role is the default and an explicit no-op.
        let a = parse_args(&args(&["--snapshots", "/s", "--shard-role", "worker"])).unwrap();
        assert_eq!(a.role, Role::Worker);
        // Router role: workers required, shard knobs parsed, both spellings.
        let a = parse_args(&args(&[
            "--shard-role=router",
            "--workers=127.0.0.1:7971, 127.0.0.1:7972",
            "--worker-timeout-ms=250",
            "--worker-connect-timeout-ms=9000",
            "--shard-scheme=strided",
            "--addr=127.0.0.1:7970",
        ]))
        .unwrap();
        assert_eq!(a.role, Role::Router);
        assert_eq!(a.workers, vec!["127.0.0.1:7971", "127.0.0.1:7972"]);
        assert_eq!(a.worker_timeout, Duration::from_millis(250));
        assert_eq!(a.worker_connect_timeout, Duration::from_millis(9000));
        assert_eq!(a.scheme, PartitionScheme::Strided);
        // Router defaults.
        let a = parse_args(&args(&["--shard-role", "router", "--workers", "h:1"])).unwrap();
        assert_eq!(a.worker_timeout, Duration::from_secs(30));
        assert_eq!(a.worker_connect_timeout, Duration::from_secs(120));
        assert_eq!(a.scheme, PartitionScheme::Contiguous);
        // Bad values.
        assert!(parse_args(&args(&["--snapshots", "/s", "--shard-role", "boss"])).is_err());
        assert!(parse_args(&args(&["--shard-role", "router", "--workers", ","])).is_err());
        assert!(parse_args(&args(&[
            "--shard-role=router",
            "--workers=h:1",
            "--worker-timeout-ms=0"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--shard-role=router",
            "--workers=h:1",
            "--shard-scheme=diagonal"
        ]))
        .is_err());
        // Role/flag disagreements.
        assert!(parse_args(&args(&["--shard-role", "router"])).is_err());
        assert!(parse_args(&args(&[
            "--shard-role=router",
            "--workers=h:1",
            "--snapshots=/s"
        ]))
        .is_err());
        assert!(parse_args(&args(&[
            "--shard-role=router",
            "--workers=h:1",
            "--out-of-core"
        ]))
        .is_err());
        assert!(parse_args(&args(&["--snapshots", "/s", "--workers", "h:1"])).is_err());
        assert!(parse_args(&args(&[
            "--snapshots=/s",
            "--worker-timeout-ms=100"
        ]))
        .is_err());
    }
}
