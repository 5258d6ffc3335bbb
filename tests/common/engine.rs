//! The differential engine of the equivalence suites. A [`Variant`] is one
//! line over five axes: zoo row, shards × scheme, growth, load and reader
//! threads. [`obtain`] makes it real as a deployment does, and
//! [`assert_equivalent`] holds it to its reference under the one
//! [`contract`] it implies. A failure prints the variant's line.

use std::fmt;
use std::path::Path;

use hydra::{AnnIndex, Capabilities, Dataset, FileIoMode, PageCodec, PartitionScheme};
use hydra::{QueryStats, SearchParams, SearchResult, ShardedIndex, StorageConfig, StoreBacking};

use super::{assert_same_answer, head, snapshot_path, Scan, StatsMatch};

/// The `k` of every engine query.
pub const K: usize = 10;

/// Where the rows come from: `hydra::zoo(storage, seed)`.
#[derive(Debug, Clone, Copy)]
pub struct Zoo {
    pub storage: StorageConfig,
    pub seed: u64,
}

impl Zoo {
    pub fn new(storage: StorageConfig, seed: u64) -> Self {
        Self { storage, seed }
    }

    /// The rows whose capabilities (read off a build over 48 series) pass
    /// `keep`: exactly `count` of them, so a filter that silently keeps
    /// fewer fails its caller.
    pub fn rows(&self, series_len: usize, count: usize, keep: impl Fn(&Capabilities) -> bool) -> Vec<(hydra::Method, Capabilities)> {
        let probe = hydra::data::random_walk(48, series_len, 1);
        let methods = hydra::zoo(self.storage, self.seed);
        let caps: Vec<_> = methods.iter().map(|m| m.build(&probe).unwrap().capabilities()).collect();
        let rows: Vec<_> = methods.into_iter().zip(caps).filter(|(_, caps)| keep(caps)).collect();
        assert_eq!(rows.len(), count, "the zoo's rows changed");
        rows
    }

    /// The storage a `load` serves from.
    fn storage(&self, load: Load) -> StorageConfig {
        let Load::File { pool, io, codec } = load else { return self.storage };
        self.storage.with_pool_pages(pool).with_io_mode(io).with_page_codec(codec)
    }
}

/// The load axis: the built index, a resident reload of its snapshot, or a
/// file-backed load behind a pool of `pool` pages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    Built,
    Resident,
    File { pool: usize, io: FileIoMode, codec: PageCodec },
}

impl Load {
    /// File-backed, raw pages through `pread`.
    pub fn file(pool: usize) -> Self {
        Load::File { pool, io: FileIoMode::Pread, codec: PageCodec::F32 }
    }
}

/// One engine configuration, e.g.
/// `dstree S=2/strided grow=120+[7,3] load=file(pool=1,mmap,u8) threads=4`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variant {
    /// A zoo row's kind, or `scan` for the brute-force [`Scan`].
    pub row: &'static str,
    /// Shard count and scheme behind a [`ShardedIndex`]; `None` is one index.
    pub shards: Option<(usize, PartitionScheme)>,
    /// Build over the first `h` of every `n` series, then insert the rest
    /// in batches whose sizes cycle through the list.
    pub grow: Option<(usize, &'static [usize])>,
    pub load: Load,
    /// Readers searching at once; the parallel runner also runs at this count.
    pub threads: usize,
}

impl Variant {
    /// `row`, built whole, searched by one reader.
    pub fn of(row: &'static str) -> Self {
        Self { row, shards: None, grow: None, load: Load::Built, threads: 1 }
    }

    /// A fresh whole build, or for a plain file-backed load the resident
    /// load under the same storage.
    fn reference(&self) -> Self {
        let plain = self.shards.is_none() && self.grow.is_none();
        let file = matches!(self.load, Load::File { .. });
        Self { load: if plain && file { Load::Resident } else { Load::Built }, ..Self::of(self.row) }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.row)?;
        if let Some((shards, scheme)) = self.shards {
            write!(f, " S={shards}/{}", scheme.label())?;
        }
        if let Some((h, cycle)) = self.grow {
            let cycle: Vec<String> = cycle.iter().map(usize::to_string).collect();
            write!(f, " grow={h}+[{}]", cycle.join(","))?;
        }
        match self.load {
            Load::File { pool, io, codec } => {
                write!(f, " load=file(pool={pool},{},{})", io.name(), codec.name())?
            }
            load => write!(f, " load={}", format!("{load:?}").to_lowercase())?,
        }
        write!(f, " threads={}", self.threads)
    }
}

/// `v` made real as `fig* --save-index --shards` and a worker boot make it:
/// partition `data`; per shard, build the row over the head, save it with
/// the head's dataset into `dir/<partition>/shard-<s>/`, load it under the
/// backing and insert the tail; last, wrap the shards in a
/// [`ShardedIndex`]. A head already saved there is not built again, so a
/// load and its reference share one build (keep one dataset per `dir`).
pub fn obtain(zoo: &Zoo, data: &Dataset, v: &Variant, dir: &Path) -> Box<dyn AnnIndex> {
    let (shards, scheme) = v.shards.unwrap_or((1, PartitionScheme::Contiguous));
    let (map, parts) = hydra::partition(data, scheme, shards).unwrap();
    let partition = v.shards.map_or("whole".into(), |_| format!("S{shards}-{}", scheme.label()));
    let storage = zoo.storage(v.load);
    let method = hydra::zoo(storage, zoo.seed).into_iter().find(|m| m.kind() == v.row);
    let mut indexes: Vec<Box<dyn AnnIndex>> = Vec::new();
    for (s, part) in parts.iter().enumerate() {
        let Some(method) = &method else {
            assert_eq!((v.grow, v.load), (None, Load::Built), "{v}: a scan is built whole");
            indexes.push(Box::new(Scan { data: part.clone() }));
            continue;
        };
        let h = v.grow.map_or(part.len(), |(h, _)| (h * part.len() / data.len()).max(1));
        let (head, shard_dir) = (head(part, h), dir.join(&partition).join(format!("shard-{s}")));
        let prefix = if h == part.len() { "walk".to_string() } else { format!("head{h}") };
        let data_snapshot = shard_dir.join(format!("{prefix}.data.snap"));
        let snapshot = snapshot_path(&shard_dir, &prefix, v.row);
        let saved = snapshot.exists();
        let built = (v.load == Load::Built || !saved).then(|| method.build(&head).unwrap());
        if !saved {
            std::fs::create_dir_all(&shard_dir).unwrap();
            hydra::persist::dataset::save_dataset(&head, &data_snapshot).unwrap();
            built.as_ref().unwrap().save(&snapshot).unwrap();
        }
        let mut index: Box<dyn AnnIndex> = match (v.load, built) {
            (Load::Built, Some(built)) => built,
            (load, _) => {
                let dataset_snapshot = Some(data_snapshot.as_path());
                let backing = match load {
                    Load::File { .. } => StoreBacking::FileBacked { dataset_snapshot },
                    _ => StoreBacking::Resident,
                };
                let registry = hydra::standard_registry(storage, zoo.seed);
                let loaded = registry.load_any_backed(&snapshot, &head, backing);
                loaded.unwrap_or_else(|e| panic!("{v}: shard {s} failed to load: {e}"))
            }
        };
        if let Some((_, cycle)) = v.grow {
            grow(index.as_mut(), part, h, cycle);
        }
        indexes.push(index);
    }
    match v.shards {
        None => indexes.pop().unwrap(),
        Some(_) => Box::new(ShardedIndex::new(indexes, map).unwrap()),
    }
}

/// Inserts `data[from..]` in batches whose sizes cycle through `cycle`.
pub fn grow(index: &mut dyn AnnIndex, data: &Dataset, from: usize, cycle: &[usize]) {
    let (mut at, mut sizes) = (from, cycle.iter().cycle());
    while at < data.len() {
        let end = (at + sizes.next().unwrap()).min(data.len());
        index.insert_batch(&(at..end).map(|i| data.series(i)).collect::<Vec<_>>()).unwrap();
        at = end;
    }
}

/// The one settings sweep: exact, ng(k, 16) and δ-ε(0.9, 1.0) where the row
/// supports each; sharded, only what sharding guarantees — exact, and
/// ε = 0, which is exact's contract.
pub fn settings(caps: Capabilities, v: &Variant) -> Vec<SearchParams> {
    let sharded = v.shards.is_some();
    [
        (caps.exact, SearchParams::exact(K)),
        (caps.exact && caps.epsilon_approximate && sharded, SearchParams::epsilon(K, 0.0)),
        (caps.ng_approximate && !sharded, SearchParams::ng(K, 16)),
        (caps.delta_epsilon_approximate && !sharded, SearchParams::delta_epsilon(K, 0.9, 1.0)),
    ]
    .into_iter()
    .filter_map(|(supported, params)| supported.then_some(params))
    .collect()
}

/// The contract table: how much of its reference's [`QueryStats`] `v`
/// reproduces besides the answer.
pub fn contract(v: &Variant) -> StatsMatch {
    if v.shards.is_some() || matches!(v.load, Load::File { codec, .. } if codec != PageCodec::F32) {
        StatsMatch::Ignored // shards restart pruning; a coded tier prunes on its codes
    } else if v.grow.is_some() || v.threads > 1 {
        StatsMatch::ExceptIoOperations // pool residency follows growth and interleaving
    } else {
        StatsMatch::Full // another load of the same snapshot
    }
}

/// Prints the variant's line when a failure unwinds past it.
struct Replay(String);

impl Drop for Replay {
    fn drop(&mut self) {
        std::thread::panicking().then(|| eprintln!("failing variant: {}", self.0));
    }
}

/// Obtains `v` and its reference from `dir` and holds the one to the other
/// ([`assert_answers`]); returns `v`'s index for the caller's own checks.
pub fn assert_equivalent(zoo: &Zoo, data: &Dataset, v: &Variant, dir: &Path) -> Box<dyn AnnIndex> {
    let _replay = Replay(v.to_string());
    let served = Zoo { storage: zoo.storage(v.load), ..*zoo };
    let reference = obtain(&served, data, &v.reference(), dir);
    let subject = obtain(&served, data, v, dir);
    assert_answers(&v.to_string(), subject.as_ref(), reference.as_ref(), data, v);
    subject
}

/// For every setting: each query through `search`, from `v`'s readers at
/// once, against `reference` under [`contract`]; then the parallel runner at
/// 1, 4 and `v.threads` threads against that sequential run — accuracy,
/// every CPU counter and `bytes_read`.
pub fn assert_answers(label: &str, subject: &dyn AnnIndex, reference: &dyn AnnIndex, data: &Dataset, v: &Variant) {
    let shape = |index: &dyn AnnIndex| (index.num_series(), index.series_len());
    assert_eq!(shape(subject), shape(reference), "{label}: shape drifted");
    let queries = hydra::data::noisy_queries(data, 6, &[0.0, 0.2], 17);
    let truth = hydra::data::ground_truth(data, &queries, K);
    let settings = settings(reference.capabilities(), v);
    // Both sides see one access sequence until the runner moves only one.
    let mut sequential = Vec::new();
    for params in &settings {
        let want: Vec<_> = queries.iter().map(|q| reference.search(q, params).unwrap()).collect();
        let reader = || -> Vec<SearchResult> {
            let got: Vec<_> = queries.iter().map(|q| subject.search(q, params).unwrap()).collect();
            for (q, (got, want)) in got.iter().zip(&want).enumerate() {
                let context = format!("{label} {params:?} query {q}");
                assert_same_answer(&context, got, want, contract(v));
            }
            got
        };
        sequential.push(std::thread::scope(|scope| {
            let readers: Vec<_> = (0..v.threads).map(|_| scope.spawn(reader)).collect();
            readers.into_iter().map(|r| r.join().unwrap()).last().unwrap()
        }));
    }
    let cpu = |mut stats: QueryStats| {
        (stats.random_ios, stats.sequential_ios) = (0, 0);
        stats
    };
    for (params, answers) in settings.iter().zip(sequential) {
        let accuracy = super::accuracy(answers.iter().map(|a| &a.neighbors[..]), &truth);
        let mut stats = QueryStats::new();
        answers.iter().for_each(|answer| stats.merge(&answer.stats));
        for threads in std::collections::BTreeSet::from([1, 4, v.threads]) {
            let par = hydra::eval::run_workload_parallel(subject, &queries, &truth, params, threads);
            let cell = format!("{label} {params:?} runner at {threads} threads");
            assert_eq!(par.accuracy, accuracy, "{cell}: accuracy drifted");
            assert_eq!(cpu(par.stats), cpu(stats), "{cell}: CPU counters or bytes_read drifted");
        }
    }
}

/// The next draw over `rows` for `n` series: every axis a row supports —
/// growth where it ingests, file-backed loads where it is disk-capable,
/// shards where it is exact (the one class sharding guarantees).
pub fn draw(rng: &mut u64, rows: &[(hydra::Method, Capabilities)], n: usize) -> Variant {
    let mut pick = |options: usize| {
        *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15); // splitmix64
        let z = (*rng ^ (*rng >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % options as u64) as usize
    };
    let (row, caps) = &rows[pick(rows.len())];
    let schemes = [PartitionScheme::Contiguous, PartitionScheme::Strided];
    let cycles: [&'static [usize]; 3] = [&[1], &[7, 3], &[64]];
    let shards = (caps.exact && pick(2) == 0).then(|| (2 + pick(2), schemes[pick(2)]));
    let grow = caps.streaming_insert && pick(2) == 0;
    let grow = grow.then(|| (n - n / (2 << pick(3)), cycles[pick(3)]));
    let load = match pick(if caps.disk_resident { 4 } else { 2 }) {
        0 => Load::Built,
        1 => Load::Resident,
        _ => Load::File {
            pool: [1, 4, 64][pick(3)],
            io: [FileIoMode::Pread, FileIoMode::Mmap][pick(2)],
            codec: [PageCodec::F32, PageCodec::U8, PageCodec::F16][pick(3)],
        },
    };
    Variant { row: row.kind(), shards, grow, load, threads: [1, 2, 4][pick(3)] }
}
