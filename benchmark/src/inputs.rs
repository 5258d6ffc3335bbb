//! Everything a run derives from `--seed`: the dataset, the query pool and
//! the brute-force oracle. The program under test receives only these.

use std::path::{Path, PathBuf};

use crate::sut::{self, Dataset, Neighbor};

/// Neighbors the oracle keeps per query; workloads asking for fewer use a
/// prefix (the exact 10-NN are the first ten of the exact 100-NN).
pub const ORACLE_K: usize = 100;

/// Input sizes: the full benchmark, or the `--smoke` miniature.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Series in `rand256`.
    pub n: usize,
    /// Distinct queries in the pool the workloads cycle through.
    pub pool: usize,
    /// Buffer-pool pages of the out-of-core workload (data = 16x pool).
    pub ooc_pool_pages: usize,
    /// Series the ingest workload streams on top of its base snapshot.
    pub ingest_stream: usize,
    /// Queries the ingest workload re-answers after its restart.
    pub ingest_checks: usize,
    /// Iteration multiplier of the layer probes.
    pub probe_iters: usize,
    /// Seconds of the serve-shaped and route-shaped probes a traced run
    /// makes when its own workload is not that shape.
    pub wire_probe_s: f64,
}

impl Scale {
    /// 32,000 series = 32.8 MB of f32 = 512 pages of 64 KiB.
    pub const FULL: Scale = Scale {
        n: 32_000,
        pool: 2_000,
        ooc_pool_pages: 32,
        ingest_stream: 2_000,
        ingest_checks: 200,
        probe_iters: 8,
        wire_probe_s: 0.6,
    };

    /// A few seconds in total; same code paths, same names.
    pub const SMOKE: Scale = Scale {
        n: 2_000,
        pool: 48,
        ooc_pool_pages: 2,
        ingest_stream: 256,
        ingest_checks: 16,
        probe_iters: 1,
        wire_probe_s: 0.2,
    };
}

/// Where a run keeps its files.
#[derive(Debug, Clone)]
pub struct Dirs {
    /// `benchmark/out`: results, traces, the oracle cache.
    pub out: PathBuf,
    /// A per-process scratch directory under `out`, removed when the run
    /// ends.
    pub scratch: PathBuf,
}

impl Dirs {
    /// Creates `out` and a fresh scratch directory inside it.
    pub fn create(out: &Path) -> std::io::Result<Self> {
        let scratch = out.join(format!("scratch-{}", std::process::id()));
        std::fs::remove_dir_all(&scratch).ok();
        std::fs::create_dir_all(&scratch)?;
        Ok(Dirs {
            out: out.to_path_buf(),
            scratch,
        })
    }

    /// A fresh, empty directory `name` inside the scratch directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch directory");
        dir
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.scratch).ok();
    }
}

/// The query pool and its exact answers.
pub struct Inputs {
    /// The seed everything was derived from.
    pub seed: u64,
    /// Input sizes.
    pub scale: Scale,
    queries: Dataset,
    oracle: Vec<Vec<Neighbor>>,
}

impl Inputs {
    /// Generates the dataset once to derive the pool and the oracle, then
    /// drops it: every workload set-up generates its own copy, so data
    /// generation is inside `setup_s` and the oracle is outside it.
    pub fn prepare(seed: u64, scale: Scale, dirs: &Dirs) -> Self {
        let data = dataset(seed, scale);
        let pool = sut::query_pool(&data, scale.pool, seed ^ 0xABCD);
        let oracle = sut::oracle_cached(&data, &pool, ORACLE_K, &dirs.out);
        Inputs {
            seed,
            scale,
            queries: pool.queries,
            oracle: oracle.answers,
        }
    }

    /// Number of distinct queries.
    pub fn pool(&self) -> usize {
        self.queries.len()
    }

    /// Query `i` of the pool (callers cycle with `i % pool()`).
    pub fn query(&self, i: usize) -> &[f32] {
        self.queries.series(i)
    }

    /// The exact `k` nearest neighbors of query `i`, `k <= ORACLE_K`.
    pub fn truth(&self, i: usize, k: usize) -> &[Neighbor] {
        let all = &self.oracle[i];
        &all[..k.min(all.len())]
    }
}

/// The `rand256` dataset of a seed.
pub fn dataset(seed: u64, scale: Scale) -> Dataset {
    sut::generate(scale.n, seed)
}
