//! # hydra-bench
//!
//! Shared harness utilities for the figure-reproduction binaries
//! (`src/bin/fig*.rs`, `src/bin/table1_taxonomy.rs`), the serving-mode
//! load generator (`src/bin/serve_client.rs`, which replays these same
//! workloads against a `hydra-serve` server) and the live stats viewer
//! (`src/bin/hydra_stat.rs`). Per-layer costs (kernels, summarizations,
//! page reads) are probes of the benchmark package under `benchmark/`.
//!
//! Every binary prints CSV to stdout with the schema
//! `figure,dataset,method,setting,x,y` where `x` is usually the accuracy
//! (MAP) and `y` the efficiency measure of the corresponding figure of the
//! paper (throughput, combined cost, % data accessed, random I/Os, ...).
//! `crates/bench/README.md` records every binary, its flags and the
//! expected output shape.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::path::{Path, PathBuf};
use std::time::Instant;

use hydra::persist::layout;
use hydra::prelude::*;
use hydra::{AnnIndex, Dataset};
use hydra_serve::cli::{fail, non_empty, parse, positive, Flag, StorageFlags};

/// Scale factor applied to all dataset sizes (override with the
/// `HYDRA_SCALE` environment variable, e.g. `HYDRA_SCALE=4` for a longer,
/// more faithful run).
pub fn scale() -> usize {
    std::env::var("HYDRA_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1)
}

/// A dataset prepared for one experiment.
pub struct BenchDataset {
    /// Short name used in CSV output ("rand256", "sift-like", ...).
    pub name: &'static str,
    /// The series collection.
    pub data: Dataset,
    /// Query workload (paper protocol: 100 queries; scaled down here).
    pub workload: hydra::data::QueryWorkload,
    /// Exact answers for the workload.
    pub truth: hydra::data::GroundTruth,
}

/// Builds one named dataset with its workload and ground truth.
///
/// When the `HYDRA_GT_CACHE` environment variable names a directory, the
/// exact answers are served from (or computed into) that directory's
/// ground-truth cache, keyed by the dataset/query/`k` fingerprint — a large
/// wall-clock win for repeated figure runs over the same configuration. An
/// unusable cache never fails a run; it only costs the recompute.
pub fn make_dataset(name: &'static str, n: usize, len: usize, k: usize, seed: u64) -> BenchDataset {
    let kind = match name {
        "sift-like" => hydra::data::DatasetKind::SiftLike,
        "deep-like" => hydra::data::DatasetKind::DeepLike,
        "seismic-like" => hydra::data::DatasetKind::SeismicLike,
        "sald-like" => hydra::data::DatasetKind::MriLike,
        _ => hydra::data::DatasetKind::RandomWalk,
    };
    let data = kind.generate(n, len, seed);
    let workload = hydra::data::noisy_queries(&data, 20, &[0.0, 0.1, 0.25], seed ^ 0xABCD);
    let truth = match std::env::var("HYDRA_GT_CACHE") {
        Ok(dir) if !dir.is_empty() => {
            hydra::data::ground_truth_cached(&data, &workload, k, Path::new(&dir)).0
        }
        _ => hydra::data::ground_truth(&data, &workload, k),
    };
    BenchDataset {
        name,
        data,
        workload,
        truth,
    }
}

/// The in-memory experiment datasets of Figure 3 (scaled down).
pub fn in_memory_datasets(k: usize) -> Vec<BenchDataset> {
    let s = scale();
    vec![
        make_dataset("rand256", 4_000 * s, 256, k, 1),
        make_dataset("rand-long", 1_000 * s, 1_024, k, 2),
        make_dataset("sift-like", 4_000 * s, 128, k, 3),
        make_dataset("deep-like", 4_000 * s, 96, k, 4),
    ]
}

/// The on-disk experiment datasets of Figure 4 (scaled down).
pub fn on_disk_datasets(k: usize) -> Vec<BenchDataset> {
    let s = scale();
    vec![
        make_dataset("rand256", 8_000 * s, 256, k, 5),
        make_dataset("sift-like", 8_000 * s, 128, k, 6),
        make_dataset("deep-like", 8_000 * s, 96, k, 7),
    ]
}

/// The five datasets of the best-methods comparison (Figure 6).
pub fn best_method_datasets(k: usize) -> Vec<BenchDataset> {
    let s = scale();
    vec![
        make_dataset("rand256", 6_000 * s, 256, k, 11),
        make_dataset("sift-like", 6_000 * s, 128, k, 12),
        make_dataset("deep-like", 6_000 * s, 96, k, 13),
        make_dataset("sald-like", 6_000 * s, 128, k, 14),
        make_dataset("seismic-like", 6_000 * s, 256, k, 15),
    ]
}

/// A method obtained for an experiment, together with how it was obtained.
pub struct BuiltMethod {
    /// The index behind the uniform interface.
    pub index: Box<dyn AnnIndex>,
    /// Wall-clock seconds spent obtaining the index: a fresh build, or —
    /// when it was restored from a snapshot — the load (see
    /// [`BuiltMethod::loaded`]). Figure binaries report this value as their
    /// build-time column either way, so a `--load-index` run honestly shows
    /// the cost of booting from disk instead of a rebuild.
    pub build_seconds: f64,
    /// Whether the index was loaded from a snapshot rather than built.
    pub loaded: bool,
}

/// Obtains one index: loads it from `flags.load_index` (hard error if the
/// snapshot is missing, damaged, or fingerprint-mismatched — a serving run
/// must never silently fall back to a rebuild), or builds it and, with
/// `flags.save_index`, snapshots it for later runs. With
/// `flags.storage.out_of_core`, disk-capable indexes re-attach their raw series
/// file-backed: dataset-ordered stores onto the directory's
/// `<dataset>.data.snap` itself, leaf-ordered ones onto a verified
/// `<snapshot>.series` sidecar.
fn obtain(
    dataset_name: &str,
    data: &Dataset,
    method: &hydra::Method,
    flags: &BenchFlags,
) -> BuiltMethod {
    let kind = method.kind();
    if let Some(dir) = &flags.load_index {
        let path = layout::index_snapshot(dir, dataset_name, kind);
        let data_snap = layout::dataset_snapshot(dir, dataset_name);
        let backing = if flags.storage.out_of_core {
            hydra::StoreBacking::FileBacked {
                // Directories saved by `--save-index` always hold the
                // dataset snapshot; tolerate hand-built ones without it
                // (the loaders fall back to a sidecar).
                dataset_snapshot: data_snap.exists().then_some(data_snap.as_path()),
            }
        } else {
            hydra::StoreBacking::Resident
        };
        // A registry of this row alone: a file of another kind under this
        // row's name is an error, not another method's index.
        let mut registry = hydra::persist::LoaderRegistry::new();
        method.register(&mut registry);
        let t = Instant::now();
        let index = registry.load_any_backed(&path, data, backing).unwrap_or_else(|e| {
            fail(&format!(
                "cannot load {kind} snapshot from {}: {e}",
                path.display()
            ))
        });
        return BuiltMethod {
            index,
            build_seconds: t.elapsed().as_secs_f64(),
            loaded: true,
        };
    }
    let t = Instant::now();
    let index = match flags.ingest_split {
        Some(split) => build_with_ingest(data, method, split),
        None => method.build(data).expect("index build"),
    };
    let build_seconds = t.elapsed().as_secs_f64();
    if let Some(dir) = &flags.save_index {
        let path = layout::index_snapshot(dir, dataset_name, kind);
        index.save(&path).unwrap_or_else(|e| {
            fail(&format!(
                "cannot save {kind} snapshot to {}: {e}",
                path.display()
            ))
        });
    }
    BuiltMethod {
        index,
        build_seconds,
        loaded: false,
    }
}

/// The `--ingest-split F` build path: build over the first `ceil(F·n)`
/// series, then stream the remaining series in through
/// [`AnnIndex::insert_batch`] in fixed chunks. Methods that do not
/// advertise [`hydra::Capabilities::streaming_insert`] are rebuilt over
/// the full dataset instead, so every method still answers over all `n`
/// series. Either way the resulting index answers — and, under
/// `--save-index`, snapshots — identically to an unsplit build, which is
/// the ingest-equivalence contract the CI smoke diffs.
fn build_with_ingest(data: &Dataset, method: &hydra::Method, split: f64) -> Box<dyn hydra::ZooIndex> {
    /// Chunk size for the streamed tail. Any chunking yields the same
    /// index (proven by the ingest-equivalence suites); a modest fixed
    /// size keeps the batches realistic without a tuning knob.
    const INGEST_CHUNK: usize = 256;
    let n = data.len();
    let len = data.series_len();
    let head_len = ((n as f64) * split).ceil().max(1.0) as usize;
    let head_len = head_len.min(n);
    let head = Dataset::from_flat(len, data.as_flat()[..head_len * len].to_vec())
        .expect("ingest-split head dataset");
    let mut index = method.build(&head).expect("index build");
    if head_len == n {
        return index;
    }
    if !index.capabilities().streaming_insert {
        return method.build(data).expect("index build");
    }
    let mut at = head_len;
    while at < n {
        let hi = (at + INGEST_CHUNK).min(n);
        let batch: Vec<&[f32]> = (at..hi).map(|i| data.series(i)).collect();
        index
            .insert_batch(&batch)
            .expect("streaming ingest of the dataset tail");
        at = hi;
    }
    index
}

/// Builds every method applicable to the scenario, timing each build.
pub fn build_methods(data: &Dataset, in_memory: bool, seed: u64) -> Vec<BuiltMethod> {
    build_or_load_methods("default", data, in_memory, seed, &BenchFlags::default())
}

/// [`build_methods`] with snapshot support: with `flags.load_index` every
/// method is restored from `DIR/<dataset>-<kind>.snap` (skipping its build
/// phase entirely), and with `flags.save_index` every freshly built method
/// is written there for later runs, together with one
/// `DIR/<dataset>.data.snap` dataset snapshot so a `hydra-serve` process
/// can boot the directory self-sufficiently. The method set and
/// configurations are the rows of [`hydra::zoo`] that are
/// [`hydra::Method::in_scenario`] — the same table
/// `hydra::standard_registry` is filled from, which is what lets it
/// restore these snapshots with matching fingerprints.
pub fn build_or_load_methods(
    dataset_name: &str,
    data: &Dataset,
    in_memory: bool,
    seed: u64,
    flags: &BenchFlags,
) -> Vec<BuiltMethod> {
    if flags.shards > 1 {
        return build_or_load_methods_sharded(dataset_name, data, in_memory, seed, flags);
    }
    if let Some(dir) = &flags.save_index {
        let path = layout::dataset_snapshot(dir, dataset_name);
        hydra::persist::dataset::save_dataset(data, &path).unwrap_or_else(|e| {
            let path = path.display();
            fail(&format!(
                "cannot save the {dataset_name} dataset snapshot to {path}: {e}"
            ))
        });
    }
    hydra::zoo(flags.storage.storage(in_memory), seed)
        .iter()
        .filter(|method| method.in_scenario(in_memory, data.series_len()))
        .map(|method| obtain(dataset_name, data, method, flags))
        .collect()
}

/// The `--shards S` path of [`build_or_load_methods`]: partition the
/// dataset into `S` contiguous shards, run the ordinary unsharded path
/// once per shard (so persistence, fingerprints, pool overrides and
/// out-of-core backing all work per shard, against that shard's own
/// `shard-<s>/` snapshot subdirectory — exactly what a
/// `hydra-serve --shard-role worker` boots), and wrap each method's `S`
/// per-shard indexes in one [`hydra::ShardedIndex`]. Method names, CSV
/// rows and sweep settings are unchanged; `build_seconds` is the sum over
/// shards and `loaded` means *every* shard was loaded.
fn build_or_load_methods_sharded(
    dataset_name: &str,
    data: &Dataset,
    in_memory: bool,
    seed: u64,
    flags: &BenchFlags,
) -> Vec<BuiltMethod> {
    let (map, shard_data) =
        hydra::partition(data, hydra::PartitionScheme::Contiguous, flags.shards)
            .unwrap_or_else(|e| {
                let (n, shards) = (data.len(), flags.shards);
                fail(&format!("cannot split {dataset_name} ({n} series) into {shards} shards: {e}"))
            });
    let mut per_shard: Vec<Vec<BuiltMethod>> = Vec::with_capacity(flags.shards);
    for (s, shard) in shard_data.iter().enumerate() {
        let sub = BenchFlags {
            shards: 1,
            save_index: flags.save_index.as_ref().map(|d| layout::shard_dir(d, s)),
            load_index: flags.load_index.as_ref().map(|d| layout::shard_dir(d, s)),
            ..flags.clone()
        };
        if let Some(dir) = &sub.save_index {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| {
                fail(&format!(
                    "cannot create shard directory {}: {e}",
                    dir.display()
                ))
            });
        }
        per_shard.push(build_or_load_methods(dataset_name, shard, in_memory, seed, &sub));
    }
    let num_methods = per_shard[0].len();
    let mut columns: Vec<_> = per_shard.into_iter().map(Vec::into_iter).collect();
    (0..num_methods)
        .map(|_| {
            let parts: Vec<BuiltMethod> = columns
                .iter_mut()
                .map(|it| it.next().expect("every shard builds the same method set"))
                .collect();
            let build_seconds = parts.iter().map(|m| m.build_seconds).sum();
            let loaded = parts.iter().all(|m| m.loaded);
            let shards: Vec<Box<dyn AnnIndex>> = parts.into_iter().map(|m| m.index).collect();
            let index = hydra::ShardedIndex::new(shards, map.clone())
                .expect("per-shard builds match the partition map");
            BuiltMethod {
                index: Box::new(index),
                build_seconds,
                loaded,
            }
        })
        .collect()
}

/// The parameter sweep a method uses to trace its efficiency/accuracy curve,
/// mirroring the paper's tuning knobs: `nprobe`/`efs` for ng-approximate
/// methods, ε (at δ = 1) and δ (at small ε) for the methods with guarantees.
pub fn sweep_settings(
    index: &dyn AnnIndex,
    k: usize,
    guarantees: bool,
) -> Vec<(String, SearchParams)> {
    sweep_settings_for(&index.capabilities(), k, guarantees)
}

/// [`sweep_settings`] from a bare [`hydra::Capabilities`] value — for
/// callers that know a method only by its advertised capabilities, like
/// the `serve_client` load generator planning sweeps from a server's
/// index listing. Keeping one implementation guarantees a served sweep
/// replays exactly the settings the offline figures measured.
pub fn sweep_settings_for(
    caps: &hydra::Capabilities,
    k: usize,
    guarantees: bool,
) -> Vec<(String, SearchParams)> {
    let mut settings = Vec::new();
    if guarantees && caps.delta_epsilon_approximate {
        for eps in [5.0f32, 2.0, 1.0, 0.5, 0.0] {
            settings.push((format!("eps={eps}"), SearchParams::epsilon(k, eps)));
        }
        for delta in [0.5f32, 0.9, 0.99] {
            settings.push((
                format!("delta={delta}"),
                SearchParams::delta_epsilon(k, delta, 1.0),
            ));
        }
    } else if !guarantees && caps.ng_approximate {
        for nprobe in [1usize, 2, 4, 8, 16, 64, 256] {
            settings.push((format!("nprobe={nprobe}"), SearchParams::ng(k, nprobe)));
        }
    }
    settings
}

/// Runs one sweep point under the paper's sequential protocol
/// ([`hydra::eval::run_workload`]) and returns `(map, report)`.
pub fn run_point(
    index: &dyn AnnIndex,
    dataset: &BenchDataset,
    params: &SearchParams,
) -> (f64, hydra::eval::WorkloadReport) {
    let report = hydra::eval::run_workload(index, &dataset.workload, &dataset.truth, params);
    (report.accuracy.map, report)
}

/// Command-line flags of the persistence-aware figure binaries
/// (`fig2_indexing`, `fig3_inmemory`, `fig4_ondisk`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFlags {
    /// Directory to snapshot every built index into (`--save-index DIR`).
    pub save_index: Option<PathBuf>,
    /// Directory to restore every index from instead of building
    /// (`--load-index DIR`).
    pub load_index: Option<PathBuf>,
    /// The storage flags shared with `hydra-serve` (`--pool-pages N`,
    /// `--out-of-core`, `--page-codec`), applied to the disk-capable
    /// methods. `--out-of-core` makes loaded indexes attach their stores
    /// file-backed instead of resident and requires `--load-index` — a
    /// fresh build is always resident; the codec is a pure serving knob of
    /// such a store (accuracy, distance and every per-query counter column
    /// stay bit-identical while `bytes_read` drops ~4× under u8, ~2× under
    /// f16), so it in turn requires `--out-of-core`.
    pub storage: StorageFlags,
    /// Shard count (`--shards S`, default 1 = unsharded). With `S > 1`
    /// every method is built as a [`hydra::ShardedIndex`] over `S`
    /// contiguous shards of the dataset; snapshot directories gain one
    /// `shard-<s>/` subdirectory per shard, each a complete bootable
    /// directory for one `hydra-serve --shard-role worker`.
    pub shards: usize,
    /// Streaming-ingest split (`--ingest-split F`, `0 < F < 1`): build
    /// each index over the first `ceil(F·n)` series only, then ingest the
    /// rest through [`hydra::AnnIndex::insert_batch`] in chunks. Methods
    /// without [`hydra::Capabilities::streaming_insert`] fall back to a
    /// full build. Either way the ingest-equivalence contract makes every
    /// accuracy column identical to an unsplit run — which is exactly
    /// what the CI ingest smoke diffs. Incompatible with `--load-index`
    /// (a loaded index has no build phase to split).
    pub ingest_split: Option<f64>,
    /// Stage-trace CSV file (`--trace-out FILE`): each sweep point appends
    /// one row per recorded [`hydra_obs::Stage`] of its workload's
    /// [`hydra_obs::QueryTrace`] — how long a figure's queries searched,
    /// and what I/O that search did.
    /// `None` (the default) records nothing and costs nothing.
    pub trace_out: Option<PathBuf>,
}

impl Default for BenchFlags {
    /// No persistence, unsharded, resident.
    fn default() -> Self {
        Self {
            save_index: None,
            load_index: None,
            storage: StorageFlags::default(),
            shards: 1,
            ingest_split: None,
            trace_out: None,
        }
    }
}

impl AsMut<StorageFlags> for BenchFlags {
    fn as_mut(&mut self) -> &mut StorageFlags {
        &mut self.storage
    }
}

/// The figure-binary flags; [`StorageFlags::flags`] joins them in
/// [`parse_bench_flags`].
const BENCH_FLAGS: [Flag<BenchFlags>; 5] = [
    Flag::new("--save-index", Some("DIR"), |f, v| {
        non_empty(v, "--save-index expects a directory path")
            .map(|dir| f.save_index = Some(dir.into()))
    }),
    Flag::new("--load-index", Some("DIR"), |f, v| {
        non_empty(v, "--load-index expects a directory path")
            .map(|dir| f.load_index = Some(dir.into()))
    }),
    Flag::new("--shards", Some("S"), |f, v| {
        positive("--shards", v).map(|n| f.shards = n)
    }),
    Flag::new("--ingest-split", Some("F"), |f, v| {
        f.ingest_split = match v.parse::<f64>() {
            Ok(split) if split > 0.0 && split < 1.0 => Some(split),
            _ => {
                return Err(format!(
                    "--ingest-split expects a fraction strictly between 0 and 1, got {v:?}"
                ))
            }
        };
        Ok(())
    }),
    Flag::new("--trace-out", Some("FILE"), |f, v| {
        non_empty(v, "--trace-out expects a file path").map(|file| f.trace_out = Some(file.into()))
    }),
];

/// Parses the figure-binary flags strictly: both `--flag VALUE` and
/// `--flag=VALUE` spellings are accepted, and anything unusable — a bad
/// value, a repeated flag, an unknown argument, `--save-index` together
/// with `--load-index` — is an error, never a silent fallback: a mistyped
/// invocation must not let rebuilt numbers masquerade as loaded ones.
pub fn parse_bench_flags(args: &[String]) -> std::result::Result<BenchFlags, String> {
    let mut flags = BenchFlags::default();
    let table: Vec<Flag<BenchFlags>> =
        BENCH_FLAGS.into_iter().chain(StorageFlags::flags()).collect();
    parse(args, &table, &mut flags)?;
    if flags.save_index.is_some() && flags.load_index.is_some() {
        return Err(
            "--save-index and --load-index are mutually exclusive (a loaded index is already saved)"
                .into(),
        );
    }
    if flags.storage.out_of_core && flags.load_index.is_none() {
        return Err(
            "--out-of-core requires --load-index DIR (a fresh build is always resident; save \
             snapshots first, then re-run out-of-core)"
                .into(),
        );
    }
    if flags.ingest_split.is_some() && flags.load_index.is_some() {
        return Err(
            "--ingest-split and --load-index are mutually exclusive (a loaded index has no \
             build phase to split)"
                .into(),
        );
    }
    flags.storage.validate()?;
    Ok(flags)
}

/// [`parse_bench_flags`] over the process arguments; exits with an error
/// message on a malformed invocation.
pub fn bench_flags() -> BenchFlags {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_bench_flags(&args).unwrap_or_else(|msg| fail(&msg))
}

/// Writes the `--trace-out FILE` stage-breakdown CSV: one row per
/// recorded stage per sweep point, with the stage's call count,
/// wall-clock seconds, and I/O counters — the workload-level view of the
/// same [`hydra_obs::QueryTrace`] the server's slow-query log prints
/// per query. Stages a run never enters (the figures' runs enter
/// `shard_search` alone) produce no row.
pub struct TraceWriter {
    out: std::io::BufWriter<std::fs::File>,
}

impl TraceWriter {
    /// The header row of the trace CSV.
    pub const HEADER: &'static str =
        "figure,dataset,method,setting,stage,calls,seconds,bytes_read,random_ios,sequential_ios";

    /// Creates (truncating) `path` and writes the header.
    ///
    /// # Errors
    /// The underlying [`std::io::Error`] if the file cannot be created or
    /// written.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{}", Self::HEADER)?;
        Ok(Self { out })
    }

    /// Opens the writer a figure binary's flags ask for: `Some` under
    /// `--trace-out FILE` (exiting with an error if the file cannot be
    /// created — a silently traceless run must not masquerade as a traced
    /// one), `None` otherwise.
    pub fn from_flags(flags: &BenchFlags) -> Option<Self> {
        let path = flags.trace_out.as_deref()?;
        Some(Self::create(path).unwrap_or_else(|e| {
            fail(&format!("cannot create --trace-out {}: {e}", path.display()))
        }))
    }

    /// Appends the recorded stages of one sweep point's trace.
    ///
    /// # Errors
    /// The underlying [`std::io::Error`] of a failed write.
    pub fn record(
        &mut self,
        figure: &str,
        dataset: &str,
        method: &str,
        setting: &str,
        trace: &hydra_obs::QueryTrace,
    ) -> std::io::Result<()> {
        use std::io::Write as _;
        for stage in hydra_obs::Stage::ALL {
            let span = trace.span(stage);
            if span.calls == 0 {
                continue;
            }
            writeln!(
                self.out,
                "{figure},{dataset},{method},{setting},{},{},{:.6},{},{},{}",
                stage.name(),
                span.calls,
                span.nanos as f64 / 1e9,
                span.io.bytes_read,
                span.io.random_ios,
                span.io.sequential_ios,
            )?;
        }
        self.out.flush()
    }
}

/// Prints the common CSV header used by all figure binaries.
pub fn print_header() {
    println!("figure,dataset,method,setting,x,y");
}

/// Prints one CSV row of the common schema.
pub fn print_row(figure: &str, dataset: &str, method: &str, setting: &str, x: f64, y: f64) {
    println!("{figure},{dataset},{method},{setting},{x:.4},{y:.4}");
}

/// The body of the two efficiency–accuracy figures (`fig3`: in memory,
/// `fig4`: on disk): for every dataset × scenario method × {ng, δ-ε} ×
/// sweep setting, one point of 100-NN queries, printed as three rows —
/// throughput, index + 100 queries, index + 10K queries (extrapolated),
/// each against MAP — and, under `--trace-out`, traced stage by stage.
pub fn efficiency_accuracy_figure(
    figure: &str,
    datasets: fn(usize) -> Vec<BenchDataset>,
    in_memory: bool,
    seed: u64,
) {
    let flags = bench_flags();
    let mut tracer = TraceWriter::from_flags(&flags);
    print_header();
    let k = 100;
    for dataset in datasets(k) {
        for built in build_or_load_methods(dataset.name, &dataset.data, in_memory, seed, &flags) {
            let (index, method) = (built.index.as_ref(), built.index.name());
            for guarantees in [false, true] {
                let mode = if guarantees { "delta-eps" } else { "ng" };
                for (setting, params) in sweep_settings(index, k, guarantees) {
                    let (map, report) = run_point(index, &dataset, &params);
                    if let Some(w) = tracer.as_mut() {
                        let label = format!("{figure}-{mode}");
                        w.record(&label, dataset.name, method, &setting, &report.trace)
                            .unwrap_or_else(|e| fail(&format!("cannot write --trace-out row: {e}")));
                    }
                    let per_query = report.total_seconds / report.num_queries as f64;
                    for (panel, y) in [
                        ("throughput", report.queries_per_minute),
                        ("idx-plus-100q", (built.build_seconds + per_query * 100.0) / 60.0),
                        (
                            "idx-plus-10kq",
                            (built.build_seconds + report.extrapolated_10k_seconds) / 60.0,
                        ),
                    ] {
                        let label = format!("{figure}-{panel}-{mode}");
                        print_row(&label, dataset.name, method, &setting, map, y);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn make_dataset_produces_consistent_bundle() {
        let d = make_dataset("rand256", 200, 32, 5, 1);
        assert_eq!(d.data.len(), 200);
        assert_eq!(d.workload.len(), 20);
        assert_eq!(d.truth.answers.len(), 20);
        assert_eq!(d.truth.k, 5);
        assert_eq!(d.name, "rand256");
    }

    #[test]
    fn build_methods_times_every_build() {
        let d = hydra::data::random_walk(300, 32, 9);
        let methods = build_methods(&d, true, 2);
        assert_eq!(methods.len(), 8);
        for m in &methods {
            assert!(m.build_seconds >= 0.0);
            assert_eq!(m.index.num_series(), 300);
        }
        let disk_methods = build_methods(&d, false, 2);
        assert_eq!(disk_methods.len(), 5);
    }

    #[test]
    fn sweeps_match_capabilities() {
        let d = hydra::data::random_walk(200, 32, 9);
        let dstree = DsTree::build(&d, DsTreeConfig::default()).unwrap();
        let hnsw = Hnsw::build(
            &d,
            HnswConfig {
                m: 4,
                ef_construction: 32,
                seed: 1,
            },
        )
        .unwrap();
        assert!(!sweep_settings(&dstree, 10, true).is_empty());
        assert!(!sweep_settings(&dstree, 10, false).is_empty());
        assert!(sweep_settings(&hnsw, 10, true).is_empty());
        assert!(!sweep_settings(&hnsw, 10, false).is_empty());
    }

    #[test]
    fn scale_defaults_to_one() {
        assert!(scale() >= 1);
    }

    // `bench_flags()` itself reads the live process arguments (and the
    // libtest harness injects its own, e.g. `--quiet`), so the pure
    // `parse_bench_flags` is the tested surface.
    #[test]
    fn parse_bench_flags_accepts_both_spellings_and_rejects_garbage() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_bench_flags(&args(&[])), Ok(BenchFlags::default()));
        let f = parse_bench_flags(&args(&["--save-index", "/tmp/x"])).unwrap();
        assert_eq!(f.save_index.as_deref(), Some(Path::new("/tmp/x")));
        assert!(f.load_index.is_none());
        let f = parse_bench_flags(&args(&["--load-index=/tmp/y"])).unwrap();
        assert_eq!(f.load_index.as_deref(), Some(Path::new("/tmp/y")));
        // Strictness: unknown flags, bad values, duplicates and conflicts
        // are all hard errors.
        assert!(parse_bench_flags(&args(&["-s", "/tmp/x"])).is_err());
        assert!(parse_bench_flags(&args(&["--save-index", "/tmp/x", "extra"])).is_err());
        assert!(parse_bench_flags(&args(&["--save-index"])).is_err());
        assert!(parse_bench_flags(&args(&["--save-index="])).is_err());
        assert!(parse_bench_flags(&args(&["--save-index", "/a", "--save-index", "/b"])).is_err());
        assert!(parse_bench_flags(&args(&["--save-index", "/a", "--load-index", "/b"])).is_err());
        assert!(parse_bench_flags(&args(&["extra"])).is_err());
        // Retired flags are unknown, and the "accepted: …" line omits them.
        for retired in [
            &["--load-index", "/s", "--out-of-core", "--backing", "mmap"][..],
            &["--storage", "in-memory"],
            &["--shard-role", "router", "--workers", "h:1", "--shard-scheme", "contiguous"],
            &["--threads", "2"],
        ] {
            let err = parse_bench_flags(&args(retired)).unwrap_err();
            let (head, accepted) = err.split_once("(accepted: ").expect("an unknown-flag error");
            assert!(head.starts_with("unrecognized argument"), "{retired:?}: {err}");
            for flag in ["--backing", "--storage", "--shard-scheme", "--threads"] {
                assert!(!accepted.contains(flag), "{flag} is still accepted: {accepted}");
            }
        }
        // Out-of-core flags: --pool-pages and --out-of-core, both spellings,
        // strict about garbage, and --out-of-core demands snapshots to load.
        let f = parse_bench_flags(&args(&["--load-index", "/s", "--out-of-core", "--pool-pages", "2"]))
            .unwrap();
        assert!(f.storage.out_of_core);
        assert_eq!(f.storage.pool_pages, Some(2));
        assert_eq!(
            parse_bench_flags(&args(&["--pool-pages=0"])).unwrap().storage.pool_pages,
            Some(0),
            "a zero-page pool (pure cold-cache) is a legal measurement setup"
        );
        assert!(parse_bench_flags(&args(&["--pool-pages", "few"])).is_err());
        assert!(parse_bench_flags(&args(&["--pool-pages"])).is_err());
        assert!(parse_bench_flags(&args(&["--pool-pages=1", "--pool-pages=2"])).is_err());
        assert!(parse_bench_flags(&args(&["--out-of-core"])).is_err());
        assert!(parse_bench_flags(&args(&["--save-index", "/s", "--out-of-core"])).is_err());
        assert!(parse_bench_flags(&args(&["--load-index", "/s", "--out-of-core", "--out-of-core"]))
            .is_err());
        assert!(parse_bench_flags(&args(&["--out-of-core=yes"])).is_err());
        // Sharding flag: both spellings, strict about garbage.
        assert_eq!(parse_bench_flags(&args(&[])).unwrap().shards, 1);
        assert_eq!(parse_bench_flags(&args(&["--shards", "4"])).unwrap().shards, 4);
        assert_eq!(parse_bench_flags(&args(&["--shards=2"])).unwrap().shards, 2);
        assert!(parse_bench_flags(&args(&["--shards", "0"])).is_err());
        assert!(parse_bench_flags(&args(&["--shards", "two"])).is_err());
        assert!(parse_bench_flags(&args(&["--shards"])).is_err());
        assert!(parse_bench_flags(&args(&["--shards=2", "--shards=3"])).is_err());
        // Ingest-split flag: both spellings, a strict open interval, and
        // mutual exclusion with --load-index (nothing to split there).
        assert_eq!(parse_bench_flags(&args(&[])).unwrap().ingest_split, None);
        assert_eq!(
            parse_bench_flags(&args(&["--ingest-split", "0.5"])).unwrap().ingest_split,
            Some(0.5)
        );
        assert_eq!(
            parse_bench_flags(&args(&["--ingest-split=0.25"])).unwrap().ingest_split,
            Some(0.25)
        );
        assert!(parse_bench_flags(&args(&["--ingest-split", "0"])).is_err());
        assert!(parse_bench_flags(&args(&["--ingest-split", "1"])).is_err());
        assert!(parse_bench_flags(&args(&["--ingest-split", "-0.5"])).is_err());
        assert!(parse_bench_flags(&args(&["--ingest-split", "half"])).is_err());
        assert!(parse_bench_flags(&args(&["--ingest-split"])).is_err());
        assert!(parse_bench_flags(&args(&["--ingest-split=0.5", "--ingest-split=0.6"])).is_err());
        assert!(parse_bench_flags(&args(&["--load-index", "/s", "--ingest-split", "0.5"])).is_err());
        let f = parse_bench_flags(&args(&["--save-index", "/s", "--ingest-split", "0.5"])).unwrap();
        assert_eq!(f.ingest_split, Some(0.5), "--ingest-split composes with --save-index");
        // Page-codec flag: the shared group's values and duplicate
        // rejection, and the knob demands the file-backed store it shapes
        // — with exactly `hydra-serve`'s error, because it is one rule
        // (`--out-of-core` in turn demands `--load-index`).
        let f = parse_bench_flags(&args(&["--load-index", "/s", "--out-of-core", "--page-codec", "u8"]))
            .unwrap();
        assert_eq!(f.storage.page_codec, hydra::PageCodec::U8);
        let f = parse_bench_flags(&args(&["--page-codec", "f32"]));
        assert_eq!(f, Ok(BenchFlags::default()), "the default needs no store file");
        assert!(parse_bench_flags(&args(&["--page-codec", "u4"])).is_err());
        assert!(parse_bench_flags(&args(&["--page-codec"])).is_err());
        assert!(parse_bench_flags(&args(&[
            "--load-index=/s",
            "--out-of-core",
            "--page-codec=u8",
            "--page-codec=u8"
        ]))
        .is_err());
        for value in ["u8", "f16"] {
            let lone = StorageFlags {
                page_codec: hydra::PageCodec::parse(value).unwrap(),
                ..StorageFlags::default()
            };
            for prefix in [&[][..], &["--load-index", "/s"], &["--save-index", "/s"]] {
                let argv: Vec<&str> = prefix.iter().copied().chain(["--page-codec", value]).collect();
                assert_eq!(
                    parse_bench_flags(&args(&argv)),
                    Err(lone.validate().unwrap_err()),
                    "{argv:?} names a file-backed knob without --out-of-core"
                );
            }
        }
        // Trace-out flag: both spellings, strict about garbage.
        assert_eq!(parse_bench_flags(&args(&[])).unwrap().trace_out, None);
        let f = parse_bench_flags(&args(&["--trace-out", "/tmp/t.csv"])).unwrap();
        assert_eq!(f.trace_out.as_deref(), Some(Path::new("/tmp/t.csv")));
        let f = parse_bench_flags(&args(&["--trace-out=t.csv"])).unwrap();
        assert_eq!(f.trace_out.as_deref(), Some(Path::new("t.csv")));
        assert!(parse_bench_flags(&args(&["--trace-out"])).is_err());
        assert!(parse_bench_flags(&args(&["--trace-out="])).is_err());
        assert!(parse_bench_flags(&args(&["--trace-out=a", "--trace-out=b"])).is_err());
    }

    #[test]
    fn trace_writer_emits_one_row_per_recorded_stage() {
        let path = std::env::temp_dir().join(format!(
            "hydra-bench-trace-{}.csv",
            std::process::id()
        ));
        let d = make_dataset("rand256", 200, 32, 5, 91);
        let dstree = DsTree::build(&d.data, DsTreeConfig::default()).unwrap();
        let (_, seq) = run_point(&dstree, &d, &SearchParams::ng(5, 8));
        let mut w = TraceWriter::create(&path).unwrap();
        w.record("fig-test", d.name, dstree.name(), "nprobe=8", &seq.trace).unwrap();
        drop(w);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], TraceWriter::HEADER);
        // One run, one recorded stage: shard_search.
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1].split(',').nth(4), Some("shard_search"));
        assert_eq!(lines[1].split(',').count(), 10, "malformed row {:?}", lines[1]);
        // Its calls column is the workload size.
        let calls: u64 = lines[1].split(',').nth(5).unwrap().parse().unwrap();
        assert_eq!(calls, seq.num_queries as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_zoo_keeps_method_names_and_saves_bootable_shard_directories() {
        let dir = std::env::temp_dir().join(format!(
            "hydra-bench-sharded-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let d = make_dataset("rand256", 300, 32, 5, 51);
        let plain = build_or_load_methods(d.name, &d.data, true, 2, &BenchFlags::default());
        let save = BenchFlags {
            shards: 2,
            save_index: Some(dir.clone()),
            ..BenchFlags::default()
        };
        let sharded = build_or_load_methods(d.name, &d.data, true, 2, &save);
        assert_eq!(plain.len(), sharded.len());
        for (p, s) in plain.iter().zip(sharded.iter()) {
            assert_eq!(p.index.name(), s.index.name(), "CSV method names must not change");
            assert_eq!(s.index.num_series(), 300, "sharded view spans the whole dataset");
            assert!(!s.loaded);
        }
        // Each shard directory is a complete bootable snapshot directory:
        // a dataset snapshot plus every method of the scenario.
        for s in 0..2 {
            let shard = layout::shard_dir(&dir, s);
            assert!(layout::dataset_snapshot(&shard, d.name).exists());
            assert!(layout::index_snapshot(&shard, d.name, "dstree").exists());
        }
        // Loading the sharded zoo back reports loaded methods with answers
        // identical to the freshly built sharded zoo.
        let load = BenchFlags {
            shards: 2,
            load_index: Some(dir.clone()),
            ..BenchFlags::default()
        };
        let loaded = build_or_load_methods(d.name, &d.data, true, 2, &load);
        assert!(loaded.iter().all(|m| m.loaded));
        for (b, l) in sharded.iter().zip(loaded.iter()) {
            let params = SearchParams::ng(5, 8);
            let (map_b, rep_b) = run_point(b.index.as_ref(), &d, &params);
            let (map_l, rep_l) = run_point(l.index.as_ref(), &d, &params);
            assert_eq!(map_b, map_l, "{} must answer identically", b.index.name());
            assert_eq!(rep_b.accuracy, rep_l.accuracy);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_core_load_answers_like_the_resident_load() {
        let dir = std::env::temp_dir().join(format!(
            "hydra-bench-ooc-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let d = make_dataset("rand256", 400, 32, 5, 31);
        let save = BenchFlags {
            save_index: Some(dir.clone()),
            ..BenchFlags::default()
        };
        let built = build_or_load_methods(d.name, &d.data, false, 5, &save);
        let resident = BenchFlags {
            load_index: Some(dir.clone()),
            ..BenchFlags::default()
        };
        let resident = build_or_load_methods(d.name, &d.data, false, 5, &resident);
        // A pool of 1 page is far smaller than 400×32×4 bytes of raw data.
        let ooc = BenchFlags {
            load_index: Some(dir.clone()),
            storage: StorageFlags {
                out_of_core: true,
                pool_pages: Some(1),
                ..StorageFlags::default()
            },
            ..BenchFlags::default()
        };
        let ooc = build_or_load_methods(d.name, &d.data, false, 5, &ooc);
        assert_eq!(built.len(), ooc.len());
        for ((b, r), o) in built.iter().zip(resident.iter()).zip(ooc.iter()) {
            let params = SearchParams::ng(5, 8);
            let (map_b, rep_b) = run_point(b.index.as_ref(), &d, &params);
            let (map_r, rep_r) = run_point(r.index.as_ref(), &d, &params);
            let (map_o, rep_o) = run_point(o.index.as_ref(), &d, &params);
            assert_eq!(map_b, map_o, "{} out-of-core answers drifted", b.index.name());
            assert_eq!(rep_b.accuracy, rep_o.accuracy);
            assert_eq!(map_r, map_o);
            assert_eq!(rep_r.accuracy, rep_o.accuracy);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn page_codec_zoo_answers_bit_identically_and_reads_fewer_bytes() {
        let dir = std::env::temp_dir().join(format!(
            "hydra-bench-codec-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        // 2 000 × 64 × 4 B = 8 default pages of raw series behind a
        // single-page pool: the genuinely thrashing regime where page
        // traffic, not survivor refinement, dominates `bytes_read`.
        let d = make_dataset("rand256", 2_000, 64, 5, 83);
        let save = BenchFlags {
            save_index: Some(dir.clone()),
            ..BenchFlags::default()
        };
        build_or_load_methods(d.name, &d.data, false, 5, &save);
        let load = |codec| BenchFlags {
            load_index: Some(dir.clone()),
            storage: StorageFlags {
                out_of_core: true,
                pool_pages: Some(1),
                page_codec: codec,
            },
            ..BenchFlags::default()
        };
        let raw = build_or_load_methods(d.name, &d.data, false, 5, &load(hydra::PageCodec::F32));
        let coded = build_or_load_methods(d.name, &d.data, false, 5, &load(hydra::PageCodec::U8));
        assert_eq!(raw.len(), coded.len());
        let mut some_store_compared = false;
        for (r, c) in raw.iter().zip(coded.iter()) {
            assert_eq!(r.index.name(), c.index.name());
            let params = SearchParams::ng(5, 8);
            let (map_r, rep_r) = run_point(r.index.as_ref(), &d, &params);
            let (map_c, rep_c) = run_point(c.index.as_ref(), &d, &params);
            assert_eq!(
                map_r, map_c,
                "{} answers drifted under --page-codec u8",
                r.index.name()
            );
            assert_eq!(rep_r.accuracy, rep_c.accuracy);
            let (Some(rio), Some(cio)) = (r.index.store_counters(), c.index.store_counters())
            else {
                continue;
            };
            some_store_compared = true;
            assert!(
                cio.bytes_read < rio.bytes_read,
                "{}: coded tier read {} bytes, raw {}",
                r.index.name(),
                cio.bytes_read,
                rio.bytes_read
            );
            assert!(cio.compressed_bytes_read > 0, "{}", r.index.name());
            assert_eq!(rio.compressed_bytes_read, 0);
        }
        assert!(some_store_compared, "no disk method exposed store counters");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_split_zoo_matches_the_full_build_in_answers_and_snapshots() {
        let full_dir = std::env::temp_dir().join(format!(
            "hydra-bench-ingest-full-{}",
            std::process::id()
        ));
        let split_dir = std::env::temp_dir().join(format!(
            "hydra-bench-ingest-split-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&full_dir).ok();
        std::fs::remove_dir_all(&split_dir).ok();
        let d = make_dataset("rand256", 300, 32, 5, 77);
        let full_flags = BenchFlags {
            save_index: Some(full_dir.clone()),
            ..BenchFlags::default()
        };
        let full = build_or_load_methods(d.name, &d.data, true, 2, &full_flags);
        let split_flags = BenchFlags {
            save_index: Some(split_dir.clone()),
            ingest_split: Some(0.6),
            ..BenchFlags::default()
        };
        let split = build_or_load_methods(d.name, &d.data, true, 2, &split_flags);
        assert_eq!(full.len(), split.len());
        for (f, s) in full.iter().zip(split.iter()) {
            assert_eq!(f.index.name(), s.index.name());
            assert_eq!(s.index.num_series(), 300, "ingested tail must be searchable");
            let params = SearchParams::ng(5, 8);
            let (map_f, rep_f) = run_point(f.index.as_ref(), &d, &params);
            let (map_s, rep_s) = run_point(s.index.as_ref(), &d, &params);
            assert_eq!(
                map_f,
                map_s,
                "{} grown by ingest answers differently from a full build",
                f.index.name()
            );
            assert_eq!(rep_f.accuracy, rep_s.accuracy);
        }
        // The grown save is a *compacted* base: byte-identical to the
        // snapshot a full build writes, so a later `--load-index` (or a
        // served boot) cannot tell how the index reached its n series.
        for entry in std::fs::read_dir(&full_dir).unwrap() {
            let name = entry.unwrap().file_name();
            let a = std::fs::read(full_dir.join(&name)).unwrap();
            let b = std::fs::read(split_dir.join(&name)).unwrap_or_else(|e| {
                panic!("ingest-split run did not save {name:?}: {e}")
            });
            assert_eq!(a, b, "{name:?} differs between full-build and ingest-split saves");
        }
        std::fs::remove_dir_all(&full_dir).ok();
        std::fs::remove_dir_all(&split_dir).ok();
    }

    #[test]
    fn saved_then_loaded_zoo_reports_identical_accuracy() {
        let dir = std::env::temp_dir().join(format!(
            "hydra-bench-snapshots-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let d = make_dataset("rand256", 300, 32, 5, 77);
        let save = BenchFlags {
            save_index: Some(dir.clone()),
            ..BenchFlags::default()
        };
        let built = build_or_load_methods(d.name, &d.data, true, 2, &save);
        assert!(built.iter().all(|m| !m.loaded));
        let load = BenchFlags {
            load_index: Some(dir.clone()),
            ..BenchFlags::default()
        };
        let loaded = build_or_load_methods(d.name, &d.data, true, 2, &load);
        assert_eq!(built.len(), loaded.len());
        assert!(loaded.iter().all(|m| m.loaded));
        for (b, l) in built.iter().zip(loaded.iter()) {
            assert_eq!(b.index.name(), l.index.name());
            let params = SearchParams::ng(5, 8);
            let (map_b, rep_b) = run_point(b.index.as_ref(), &d, &params);
            let (map_l, rep_l) = run_point(l.index.as_ref(), &d, &params);
            assert_eq!(map_b, map_l, "{} must answer identically", b.index.name());
            assert_eq!(rep_b.accuracy, rep_l.accuracy);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
