//! The differential engine of the equivalence suites. A [`Variant`] is one
//! line over six axes: zoo row, shards × scheme, growth, load, reader
//! threads and batch. [`obtain`] makes it real as a deployment does, and
//! [`assert_equivalent`] holds it to its reference under the one
//! [`contract`] it implies; [`assert_door`] holds every row to its Table 1
//! row at every entry point. A failure prints the variant's line.

use std::fmt;
use std::path::Path;

use hydra::core::workers::with_batch_workers;
use hydra::persist::layout;
use hydra::{AnnIndex, Capabilities, Dataset, Error, FileIoMode, PageCodec, PartitionScheme};
use hydra::{QueryStats, SearchMode, SearchParams, SearchResult, ShardedIndex, StorageConfig, StoreBacking};

use super::{assert_same_answer, head, Scan, StatsMatch};

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
/// `dstree S=2/strided grow=120+[7,3] load=file(pool=1,mmap,u8) threads=4 batch=5x2`.
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
    /// Queries per `search_batch` call × batch workers; `None` asks each
    /// query through `search`.
    pub batch: Option<(usize, usize)>,
}

impl Variant {
    /// `row`, built whole, searched by one reader.
    pub fn of(row: &'static str) -> Self {
        Self { row, shards: None, grow: None, load: Load::Built, threads: 1, batch: None }
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
        write!(f, " threads={}", self.threads)?;
        match self.batch {
            Some((size, workers)) => write!(f, " batch={size}x{workers}"),
            None => Ok(()),
        }
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
        let (head, shard_dir) = (head(part, h), layout::shard_dir(&dir.join(&partition), s));
        let prefix = if h == part.len() { "walk".to_string() } else { format!("head{h}") };
        let data_snapshot = layout::dataset_snapshot(&shard_dir, &prefix);
        let snapshot = layout::index_snapshot(&shard_dir, &prefix, v.row);
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
    let fanned_out = matches!(v.load, Load::File { .. }) && v.batch.is_some_and(|(_, w)| w > 1);
    if v.shards.is_some() || matches!(v.load, Load::File { codec, .. } if codec != PageCodec::F32) {
        StatsMatch::Ignored // shards restart pruning; a coded tier prunes on its codes
    } else if v.grow.is_some() || v.threads > 1 || fanned_out {
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

/// For every setting: each query as `v.batch` asks it ([`answer`]), from
/// `v`'s readers at once, against `reference`'s `search` under [`contract`]
/// — and under a `Full` one, the subject's store counters against the
/// reference's after them, so a batch is the query loop, I/O included;
/// then the parallel runner at 1, 4 and `v.threads` threads against that
/// sequential run — accuracy, every CPU counter and `bytes_read`.
pub fn assert_answers(label: &str, subject: &dyn AnnIndex, reference: &dyn AnnIndex, data: &Dataset, v: &Variant) {
    let shape = |index: &dyn AnnIndex| (index.num_series(), index.series_len());
    assert_eq!(shape(subject), shape(reference), "{label}: shape drifted");
    let workload = hydra::data::noisy_queries(data, 6, &[0.0, 0.2], 17);
    let (truth, queries) = (hydra::data::ground_truth(data, &workload, K), workload.iter().collect::<Vec<_>>());
    let settings = settings(reference.capabilities(), v);
    // Both sides see one access sequence until the runner moves only one.
    let mut sequential = Vec::new();
    for params in &settings {
        let want = answer(reference, &queries, params, None);
        let hold = |got: &[SearchResult], how: &str| {
            for (q, (got, want)) in got.iter().zip(&want).enumerate() {
                assert_same_answer(&format!("{label}{how} {params:?} query {q}"), got, want, contract(v));
            }
        };
        let reader = || -> Vec<SearchResult> {
            let got = answer(subject, &queries, params, v.batch);
            hold(&got, "");
            got
        };
        sequential.push(std::thread::scope(|scope| {
            let readers: Vec<_> = (0..v.threads).map(|_| scope.spawn(reader)).collect();
            readers.into_iter().map(|r| r.join().unwrap()).last().unwrap()
        }));
    }
    if matches!(contract(v), StatsMatch::Full) {
        assert_eq!(subject.store_counters(), reference.store_counters(), "{label}: store counters drifted");
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
            let par = hydra::eval::run_workload_parallel(subject, &workload, &truth, params, threads);
            let cell = format!("{label} {params:?} runner at {threads} threads");
            assert_eq!(par.accuracy, accuracy, "{cell}: accuracy drifted");
            assert_eq!(cpu(par.stats), cpu(stats), "{cell}: CPU counters or bytes_read drifted");
        }
    }
}

/// Every query through `search`, or with a `batch` through `search_batch`
/// in chunks on that many batch workers, a wrong-length query spliced in at
/// position 1 of each chunk: it must fail there, with its lengths.
fn answer(index: &dyn AnnIndex, queries: &[&[f32]], params: &SearchParams, batch: Option<(usize, usize)>) -> Vec<SearchResult> {
    let Some((size, workers)) = batch else {
        return queries.iter().map(|q| index.search(q, params).unwrap()).collect();
    };
    let bad = vec![0.0; index.series_len() + 1];
    let mut answers = Vec::new();
    for chunk in queries.chunks(size) {
        let mut call = chunk.to_vec();
        call.insert(1, &bad);
        let mut got = with_batch_workers(workers, || index.search_batch(&call, params));
        assert_eq!(got.len(), call.len(), "a batch answers every query");
        assert_eq!(refusal(&got.remove(1)), mismatch(index.series_len(), bad.len()), "the spliced query");
        answers.extend(got.into_iter().map(Result::unwrap));
    }
    answers
}

/// An outcome as the door states it: `None` for an answer, else the error's
/// variant, with both lengths for a length mismatch.
fn refusal(outcome: &hydra::Result<SearchResult>) -> Option<String> {
    let error = format!("{:?}", outcome.as_ref().err()?);
    Some(error.split('(').next().unwrap().to_string())
}

/// [`refusal`] of a query of `found` values where `expected` are due.
fn mismatch(expected: usize, found: usize) -> Option<String> {
    Some(format!("{:?}", Error::DimensionMismatch { expected, found }))
}

/// Table 1's four modes at a valid setting, each with the knob settings the
/// door refuses under it besides `k = 0`.
pub fn door_modes() -> [(SearchMode, Vec<(&'static str, SearchMode)>); 4] {
    let de = |epsilon, delta| SearchMode::DeltaEpsilon { epsilon, delta };
    [
        (SearchMode::Exact, vec![]),
        (SearchMode::Ng { nprobe: 8 }, vec![]),
        (SearchMode::Epsilon { epsilon: 1.0 }, vec![("NaN ε", SearchMode::Epsilon { epsilon: f32::NAN })]),
        (de(1.0, 0.9), vec![("NaN ε", de(f32::NAN, 0.9)), ("δ = -1", de(1.0, -1.0)), ("δ = 2", de(1.0, 2.0))]),
    ]
}

/// The door axis: each of `count` rows of `zoo`, built whole and as a
/// 2-shard strided [`obtain`], answers every input under each of Table 1's
/// modes as its row says — length first, then the row, then the knobs —
/// through `search` and at position 1 of a `search_batch` between two valid
/// queries, which fail only for the parameters they share and else answer
/// as `search` does. Returns the cases held.
pub fn assert_door(zoo: &Zoo, data: &Dataset, count: usize, dir: &Path) -> usize {
    let (len, good, mut cases) = (data.series_len(), data.series(7), 0);
    let p = |mode| SearchParams { k: 5, mode };
    for (method, caps) in zoo.rows(len, count, |_| true) {
        let whole = Variant::of(method.kind());
        for v in [whole, Variant { shards: Some((2, PartitionScheme::Strided)), ..whole }] {
            let index = obtain(zoo, data, &v, dir);
            for (mode, knobs) in door_modes() {
                let row = (!caps.supports(&mode)).then(|| "UnsupportedMode".to_string());
                let refused = row.clone().or(Some("InvalidParameter".into()));
                let mut inputs = vec![("valid", p(mode), len, row.clone())];
                inputs.push(("wrong length", p(mode), len + 1, mismatch(len, len + 1)));
                inputs.push(("k = 0", SearchParams { k: 0, mode }, len, refused.clone()));
                inputs.extend(knobs.into_iter().map(|(input, knob)| (input, p(knob), len, refused.clone())));
                let single = index.search(good, &p(mode));
                for (input, params, query_len, want) in inputs {
                    let _replay = Replay(format!("{v} door {input} {params:?}"));
                    let query = vec![0.5f32; query_len];
                    let mut batch = index.search_batch(&[good, &query, good], &params);
                    assert_eq!(batch.len(), 3, "a batch answers every query");
                    assert_eq!(refusal(&index.search(&query, &params)), want, "through search");
                    assert_eq!(refusal(&batch.remove(1)), want, "at position 1 of a batch");
                    let others = if query_len == len { want } else { row.clone() };
                    for other in &batch {
                        assert_eq!(refusal(other), others, "a valid query of the batch");
                        if let (Ok(got), Ok(single)) = (other, &single) {
                            assert_same_answer(input, got, single, StatsMatch::ExceptIoOperations);
                        }
                    }
                    cases += 1;
                }
            }
        }
    }
    cases
}

/// The next `options`-way pick of the splitmix64 stream at `state`.
fn splitmix(state: &mut u64, options: usize) -> usize {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % options as u64) as usize
}

/// The next draw over `rows` for `n` series: every axis a row supports —
/// growth where it ingests, file-backed loads where it is disk-capable,
/// shards where it is exact (the one class sharding guarantees) — from the
/// stream `rng[0]`, and a batch from a stream of its own, `rng[1]`, so that
/// the batch moved none of the other picks.
pub fn draw(rng: &mut [u64; 2], rows: &[(hydra::Method, Capabilities)], n: usize) -> Variant {
    let [axes, batches] = rng;
    let mut pick = |options: usize| splitmix(axes, options);
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
    let threads = [1, 2, 4][pick(3)];
    let batch = Some(([1, 5, 64][splitmix(batches, 3)], [1, 2, 4][splitmix(batches, 3)]));
    Variant { row: row.kind(), shards, grow, load, threads, batch }
}
