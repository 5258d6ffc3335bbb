//! The iSAX2+ tree.

use std::collections::HashMap;
use std::path::Path;

use hydra_core::search::SearchSpec;
use hydra_core::{
    knn_search, AnnIndex, Capabilities, Dataset, DistanceHistogram, Error, HierarchicalIndex,
    QueryStats, Representation, Result, SearchParams, SearchResult,
};
use hydra_persist::{
    codec, Collection, DataSource, Fingerprint, Leaf, PersistError, PersistentIndex, Section,
    SnapshotReader, SnapshotWriter, StoreBacking,
};
use hydra_storage::{SeriesStore, StorageConfig};
use hydra_summarize::paa::paa;
use hydra_summarize::sax::{normal_breakpoints, sax_word, IsaxWord, SaxParams};

/// Configuration of an [`Isax2Plus`] index.
#[derive(Debug, Clone, Copy)]
pub struct IsaxConfig {
    /// SAX parameters (segments and maximum cardinality bits). The paper
    /// uses 16 segments at cardinality 256.
    pub sax: SaxParams,
    /// Maximum number of series per leaf.
    pub leaf_capacity: usize,
    /// Simulated storage configuration for the raw series.
    pub storage: StorageConfig,
    /// Number of pairwise-distance samples for the δ-ε histogram.
    pub histogram_samples: usize,
    /// Seed for the histogram sampling.
    pub seed: u64,
}

impl Default for IsaxConfig {
    fn default() -> Self {
        Self {
            sax: SaxParams::default(),
            leaf_capacity: 128,
            storage: StorageConfig::on_disk(),
            histogram_samples: 20_000,
            seed: 0x15A2,
        }
    }
}

#[derive(Debug)]
struct Node {
    /// The iSAX word describing the region of this node. The virtual root
    /// (node 0) has an empty word.
    word: IsaxWord,
    children: Vec<usize>,
    /// The node's series (dataset positions) and their place in the
    /// collection; empty once the node has split.
    leaf: Leaf,
    /// Cached full-cardinality words of the members (parallel to
    /// `leaf.members`; build-time scratch, rehydrated on ingest).
    member_words: Vec<IsaxWord>,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The iSAX2+ index.
///
/// # Lower bounds by table lookup
///
/// A node's [`IsaxWord`] stays the source of truth for insertion, splitting
/// and persistence. For search, every `(bits, prefix)` a segment can take is
/// numbered as a *cell*: `cell = (1 << bits) - 2 + prefix`, so the two 1-bit
/// regions are cells 0 and 1, the four 2-bit regions cells 2..=5, and so on
/// up to `2^(max_bits + 1) - 2` cells. The cells of all nodes live in one
/// flat `u16` array (`word_len` per node, in node order, the virtual root
/// having none), written whenever a node is pushed and rebuilt from the
/// words when a snapshot loads — derived data, never persisted.
/// [`HierarchicalIndex::prepare`] fills a per-query table with the squared
/// distance from the query's PAA to every cell of every segment, and
/// [`HierarchicalIndex::min_dist`] is then `word_len` lookups summed in
/// segment order: the same additions as
/// [`hydra_summarize::sax::mindist_paa_isax`] over the word, bit for bit.
pub struct Isax2Plus {
    config: IsaxConfig,
    series_len: usize,
    breakpoints: Vec<f32>,
    nodes: Vec<Node>,
    /// Segments per word: `config.sax.segments`, clamped to the series
    /// length as [`sax_word`] clamps it.
    word_len: usize,
    /// The `(lower, upper)` breakpoint edges of every cell, by cell id.
    cell_edges: Vec<(f32, f32)>,
    /// Cell ids of node `n >= 1` at `(n - 1) * word_len ..`.
    cells: Vec<u16>,
    /// Root children by the 1-bit prefixes of their word: build/ingest-time
    /// scratch like `Node::member_words`, rebuilt from the root's children
    /// when stale.
    root_children: HashMap<Vec<u16>, usize>,
    /// Leaf-ordered raw series (the simulated on-disk layout).
    collection: Collection,
    histogram: DistanceHistogram,
}

/// The 1-bit prefix of every segment: what decides the root child of a
/// full-cardinality word.
fn root_key(word: &IsaxWord, max_bits: u8) -> Vec<u16> {
    word.symbols.iter().map(|s| s >> (max_bits - 1)).collect()
}

/// The cell id of every segment of `word` (see [`Isax2Plus`]).
fn cell_ids(word: &IsaxWord, max_bits: u8) -> impl Iterator<Item = u16> + '_ {
    (0..word.len()).map(move |i| (1 << word.bits[i]) - 2 + word.truncated_symbol(i, max_bits))
}

/// The breakpoint edges of every cell in cell-id order, exactly as
/// `mindist_paa_isax` derives them from a word: the region of `prefix` at
/// `bits` bits spans the full-cardinality symbols
/// `prefix << shift ..= ((prefix + 1) << shift) - 1`.
fn cell_edges(breakpoints: &[f32], max_bits: u8) -> Vec<(f32, f32)> {
    let mut edges = Vec::with_capacity((2usize << max_bits) - 2);
    for bits in 1..=max_bits {
        let shift = max_bits - bits;
        for prefix in 0..1usize << bits {
            let lo_sym = prefix << shift;
            let hi_sym = ((prefix + 1) << shift) - 1;
            let lower = if lo_sym == 0 {
                f32::NEG_INFINITY
            } else {
                breakpoints[lo_sym - 1]
            };
            let upper = breakpoints.get(hi_sym).copied().unwrap_or(f32::INFINITY);
            edges.push((lower, upper));
        }
    }
    edges
}

/// Where [`Isax2Plus::insert_series`] re-reads member series when a leaf's
/// cached SAX words need rehydrating: the build-time dataset, or (during
/// streaming ingest) the tree's own series store.
enum FetchSource<'a> {
    /// The collection being built (members are dataset positions).
    Dataset(&'a Dataset),
    /// The index's own collection (ingest path).
    Store,
}

/// The leaves of the tree, in node order (the virtual root is never one).
fn leaves_mut(nodes: &mut [Node]) -> impl Iterator<Item = &mut Leaf> {
    nodes
        .iter_mut()
        .skip(1)
        .filter(|n| n.is_leaf())
        .map(|n| &mut n.leaf)
}

impl Isax2Plus {
    /// Builds an iSAX2+ index over `dataset`.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or the configuration is
    /// invalid.
    pub fn build(dataset: &Dataset, config: IsaxConfig) -> Result<Self> {
        if dataset.is_empty() {
            return Err(Error::EmptyDataset);
        }
        if config.leaf_capacity == 0 {
            return Err(Error::InvalidParameter("leaf capacity must be positive".into()));
        }
        config.sax.validate().map_err(Error::InvalidParameter)?;
        let collection = Collection::leaf_order(dataset.series_len(), config.storage)?;
        let histogram =
            DistanceHistogram::from_dataset(dataset, config.histogram_samples, 256, config.seed);
        let mut index = Self::without_nodes(config, dataset.series_len(), collection, histogram);
        index.push_node(IsaxWord {
            symbols: Vec::new(),
            bits: Vec::new(),
        });
        for id in 0..dataset.len() {
            index.insert(dataset, id);
        }
        index
            .collection
            .materialize(dataset, leaves_mut(&mut index.nodes))?;
        // The cached words and the root fan-out map were build-time scratch.
        for node in &mut index.nodes {
            node.member_words = Vec::new();
        }
        index.root_children = HashMap::new();
        Ok(index)
    }

    /// An index with its query-independent geometry in place and no nodes
    /// yet. The caller has validated `config.sax`.
    fn without_nodes(
        config: IsaxConfig,
        series_len: usize,
        collection: Collection,
        histogram: DistanceHistogram,
    ) -> Self {
        let breakpoints = normal_breakpoints(config.sax.max_cardinality());
        Self {
            config,
            series_len,
            cell_edges: cell_edges(&breakpoints, config.sax.max_bits),
            breakpoints,
            nodes: Vec::new(),
            word_len: config.sax.segments.min(series_len),
            cells: Vec::new(),
            root_children: HashMap::new(),
            collection,
            histogram,
        }
    }

    fn full_word(&self, series: &[f32]) -> IsaxWord {
        sax_word(series, &self.config.sax, &self.breakpoints)
    }

    fn insert(&mut self, dataset: &Dataset, id: usize) {
        let word = self.full_word(dataset.series(id));
        self.insert_series(id, word, &FetchSource::Dataset(dataset));
    }

    /// Reads the raw series of dataset position `id` into `out`.
    fn fetch_series(&self, id: usize, src: &FetchSource<'_>, out: &mut Vec<f32>) {
        match src {
            FetchSource::Dataset(dataset) => {
                out.clear();
                out.extend_from_slice(dataset.series(id));
            }
            FetchSource::Store => self.collection.read_by_id(id, out),
        }
    }

    /// Recomputes the cached full-cardinality SAX words of a leaf whose
    /// `member_words` were dropped at the end of [`Isax2Plus::build`] (or
    /// never loaded from a snapshot). `sax_word` is deterministic, so the
    /// rehydrated words are exactly what the build computed.
    fn hydrate_member_words(&mut self, leaf: usize, src: &FetchSource<'_>) {
        if self.nodes[leaf].member_words.len() == self.nodes[leaf].leaf.members.len() {
            return;
        }
        let members = self.nodes[leaf].leaf.members.clone();
        let mut buf = Vec::new();
        let mut words = Vec::with_capacity(members.len());
        for &id in &members {
            self.fetch_series(id, src, &mut buf);
            words.push(self.full_word(&buf));
        }
        self.nodes[leaf].member_words = words;
    }

    /// Routes one series (its dataset position and full-cardinality word)
    /// to its leaf, splitting on overflow — the single insertion path shared
    /// by [`Isax2Plus::build`] and streaming ingest, which is what makes the
    /// two produce identical trees for the same insert sequence.
    fn insert_series(&mut self, id: usize, word: IsaxWord, src: &FetchSource<'_>) {
        let max_bits = self.config.sax.max_bits;

        // Find (or create) the root child whose 1-bit word covers this
        // series — at most one does, so a lookup by those bits finds the
        // child a scan of the root's children would.
        if self.root_children.len() != self.nodes[0].children.len() {
            self.root_children = self.nodes[0]
                .children
                .iter()
                .map(|&c| (root_key(&self.nodes[c].word, max_bits), c))
                .collect();
        }
        let key = root_key(&word, max_bits);
        let mut current = match self.root_children.get(&key) {
            Some(&c) => c,
            None => {
                let child_word = IsaxWord {
                    symbols: word.symbols.clone(),
                    bits: vec![1; word.len()],
                };
                let child = self.push_node(child_word);
                self.nodes[0].children.push(child);
                self.root_children.insert(key, child);
                child
            }
        };

        // Descend to a leaf.
        loop {
            if self.nodes[current].is_leaf() {
                break;
            }
            let next = self.nodes[current]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].word.contains(&word, max_bits))
                .expect("internal node children partition the region");
            current = next;
        }

        self.hydrate_member_words(current, src);
        self.nodes[current].leaf.members.push(id);
        self.nodes[current].member_words.push(word);
        if self.nodes[current].leaf.members.len() > self.config.leaf_capacity {
            self.split_leaf(current);
        }
    }

    /// Splits a leaf by promoting one segment to a higher cardinality.
    ///
    /// The segment is chosen to balance the two children as evenly as
    /// possible (the iSAX 2.0 split policy); segments already at maximum
    /// cardinality are skipped.
    fn split_leaf(&mut self, node_id: usize) {
        let max_bits = self.config.sax.max_bits;
        let word = self.nodes[node_id].word.clone();
        let members = std::mem::take(&mut self.nodes[node_id].leaf.members);
        let member_words = std::mem::take(&mut self.nodes[node_id].member_words);

        // Choose the most balanced split among promotable segments.
        let mut best: Option<(usize, usize)> = None; // (segment, imbalance)
        for seg in 0..word.len() {
            if word.bits[seg] >= max_bits {
                continue;
            }
            let new_bits = word.bits[seg] + 1;
            let shift = max_bits - new_bits;
            let left_count = member_words
                .iter()
                .filter(|w| (w.symbols[seg] >> shift) & 1 == 0)
                .count();
            let imbalance = (2 * left_count).abs_diff(member_words.len());
            if best.map(|(_, b)| imbalance < b).unwrap_or(true) {
                best = Some((seg, imbalance));
            }
        }
        let Some((seg, _)) = best else {
            // Every segment is at maximum cardinality: the node cannot be
            // refined further and keeps its oversized membership.
            self.nodes[node_id].leaf.members = members;
            self.nodes[node_id].member_words = member_words;
            return;
        };

        let new_bits = word.bits[seg] + 1;
        let shift = max_bits - new_bits;
        let mut left_word = word.clone();
        let mut right_word = word.clone();
        left_word.bits[seg] = new_bits;
        right_word.bits[seg] = new_bits;
        // Canonical symbols for the two refined regions: clear/set the newly
        // significant bit in the full-cardinality symbol.
        let base = (word.symbols[seg] >> (max_bits - word.bits[seg])) << (max_bits - word.bits[seg]);
        left_word.symbols[seg] = base;
        right_word.symbols[seg] = base | (1 << shift);

        let left_id = self.push_node(left_word);
        let right_id = self.push_node(right_word);
        for (id, w) in members.into_iter().zip(member_words.into_iter()) {
            let target = if (w.symbols[seg] >> shift) & 1 == 0 {
                left_id
            } else {
                right_id
            };
            self.nodes[target].leaf.members.push(id);
            self.nodes[target].member_words.push(w);
        }
        self.nodes[node_id].children = vec![left_id, right_id];

        // A pathological distribution can leave one child overflowing (all
        // members share the promoted bit); recurse on it.
        for child in [left_id, right_id] {
            if self.nodes[child].leaf.members.len() > self.config.leaf_capacity {
                self.split_leaf(child);
            }
        }
    }

    fn push_node(&mut self, word: IsaxWord) -> usize {
        let id = self.nodes.len();
        self.cells.extend(cell_ids(&word, self.config.sax.max_bits));
        self.nodes.push(Node {
            word,
            children: Vec::new(),
            leaf: Leaf::default(),
            member_words: Vec::new(),
        });
        id
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, n)| *i != 0 && n.is_leaf())
            .count()
    }

    /// Average leaf fill factor. The paper observes that iSAX2+ has more,
    /// emptier leaves than DSTree, which is what drives its higher random
    /// I/O count.
    pub fn avg_leaf_fill(&self) -> f64 {
        let leaves: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| i != 0 && self.nodes[i].is_leaf())
            .collect();
        if leaves.is_empty() {
            return 0.0;
        }
        let total: usize = leaves.iter().map(|&i| self.leaf_size(i)).sum();
        total as f64 / (leaves.len() * self.config.leaf_capacity) as f64
    }

    /// The simulated storage layer holding the raw series.
    pub fn store(&self) -> &SeriesStore {
        self.collection.store()
    }

    /// The distance histogram used for δ-ε-approximate search.
    pub fn histogram(&self) -> &DistanceHistogram {
        &self.histogram
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &IsaxConfig {
        &self.config
    }
}

/// Everything that shapes an iSAX2+ build, hashed together with the dataset
/// content: a snapshot only loads against the exact configuration and data
/// it was built from. The storage configuration is deliberately **not**
/// hashed — page size, pool capacity and backing shape only I/O economics,
/// never the index structure or its answers, so a snapshot may be served
/// with any pool (`--pool-pages`) and either backing.
fn snapshot_fingerprint(config: &IsaxConfig, data_fingerprint: u64) -> u64 {
    let mut f = Fingerprint::new();
    f.push_str(Isax2Plus::KIND);
    f.push_usize(config.sax.segments);
    f.push_u64(config.sax.max_bits as u64);
    f.push_usize(config.leaf_capacity);
    f.push_usize(config.histogram_samples);
    f.push_u64(config.seed);
    f.push_u64(data_fingerprint);
    f.finish()
}

impl PersistentIndex for Isax2Plus {
    type Config = IsaxConfig;
    const KIND: &'static str = "isax2+";

    /// Snapshots the tree topology (iSAX words, children, leaf extents),
    /// the leaf-order-to-dataset mapping and the δ-ε histogram. The raw
    /// series are *not* stored: `load` re-attaches the leaf-ordered
    /// [`SeriesStore`] from its `dataset` argument (resident or
    /// file-backed). A tree grown by [`AnnIndex::insert_batch`] snapshots
    /// byte-identically to a fresh build over the grown collection (see
    /// [`Collection::snapshot_layout`]).
    fn save(&self, path: &Path) -> hydra_persist::Result<()> {
        let mut w = SnapshotWriter::new(
            Self::KIND,
            snapshot_fingerprint(&self.config, self.collection.fingerprint()),
        );

        let (extents, mapping) = self.collection.snapshot_layout(
            (0..self.nodes.len()).map(|i| self.is_leaf(i).then_some(&self.nodes[i].leaf)),
        );

        let mut meta = Section::new();
        meta.put_usize(self.series_len);
        meta.put_usize(self.collection.len());
        meta.put_usize(self.nodes.len());
        w.push(meta);

        let mut nodes = Section::new();
        for (node, &(store_start, store_len)) in self.nodes.iter().zip(extents.iter()) {
            nodes.put_u16s(&node.word.symbols);
            nodes.put_u8s(&node.word.bits);
            nodes.put_usizes(&node.children);
            nodes.put_usize(store_start);
            nodes.put_usize(store_len);
        }
        w.push(nodes);

        let mut mapping_sec = Section::new();
        mapping_sec.put_usizes(&mapping);
        w.push(mapping_sec);

        let mut hist = Section::new();
        codec::put_histogram(&mut hist, &self.histogram);
        w.push(hist);

        w.write_to(path)
    }

    /// Loads without ever materializing a streamed dataset: shape and
    /// fingerprint come from the source's header facts, and the raw series
    /// re-attach straight from the validated snapshot file.
    fn load_from(
        path: &Path,
        source: DataSource<'_>,
        config: &IsaxConfig,
        backing: StoreBacking<'_>,
    ) -> hydra_persist::Result<Self> {
        config
            .sax
            .validate()
            .map_err(|e| PersistError::Corrupt(format!("cannot rebuild the iSAX2+ tree: {e}")))?;
        let max_bits = config.sax.max_bits;
        let data_fingerprint = source.fingerprint();
        let mut r = SnapshotReader::open(path)?;
        r.expect_kind(Self::KIND)?;
        r.expect_fingerprint(snapshot_fingerprint(config, data_fingerprint))?;

        let mut meta = r.next_section()?;
        let series_len = meta.get_usize()?;
        let num_series = meta.get_usize()?;
        let node_count = meta.get_usize()?;
        if series_len != source.series_len() || num_series != source.len() {
            return Err(PersistError::Corrupt(
                "snapshot metadata disagrees with the dataset".into(),
            ));
        }

        let mut sec = r.next_section()?;
        let mut nodes = Vec::with_capacity(node_count);
        let full_word_len = config.sax.segments.min(series_len);
        for _ in 0..node_count {
            let symbols = sec.get_u16s()?;
            let bits = sec.get_u8s()?;
            // The virtual root has the empty word; every other word has
            // one in-range symbol per segment, which is what keeps its
            // cell ids inside the per-query table.
            let word_len = if nodes.is_empty() { 0 } else { full_word_len };
            if symbols.len() != word_len
                || bits.len() != word_len
                || bits.iter().any(|b| !(1..=max_bits).contains(b))
                || symbols.iter().any(|s| s >> max_bits != 0)
            {
                return Err(PersistError::Corrupt(
                    "iSAX word does not fit the SAX parameters".into(),
                ));
            }
            let children = sec.get_usizes()?;
            nodes.push(Node {
                word: IsaxWord { symbols, bits },
                children,
                leaf: Leaf::from_extent(sec.get_usize()?, sec.get_usize()?, num_series)?,
                member_words: Vec::new(),
            });
        }
        if nodes
            .iter()
            .any(|n| n.children.iter().any(|&c| c == 0 || c >= node_count))
        {
            return Err(PersistError::Corrupt("node child id out of range".into()));
        }

        let mut sec = r.next_section()?;
        let mapping = sec.get_usizes()?;

        let mut sec = r.next_section()?;
        let histogram = codec::get_histogram(&mut sec)?;

        let collection = Collection::attach(
            path,
            source,
            data_fingerprint,
            Some(mapping),
            config.storage,
            backing,
        )?;

        let mut index = Self::without_nodes(*config, series_len, collection, histogram);
        index.cells = nodes
            .iter()
            .flat_map(|n| cell_ids(&n.word, max_bits))
            .collect();
        index.nodes = nodes;
        Ok(index)
    }
}

impl HierarchicalIndex for Isax2Plus {
    /// The squared distance from the query's PAA to every cell of every
    /// segment: row `i` holds segment `i`'s `cell_edges.len()` cells.
    type Prepared = Vec<f32>;

    fn roots(&self) -> &[usize] {
        &[0]
    }

    fn is_leaf(&self, node: usize) -> bool {
        node != 0 && self.nodes[node].is_leaf()
    }

    fn children(&self, node: usize) -> &[usize] {
        &self.nodes[node].children
    }

    fn prepare(&self, query: &[f32]) -> Vec<f32> {
        let query_paa = paa(query, self.config.sax.segments);
        let mut table = Vec::with_capacity(query_paa.len() * self.cell_edges.len());
        for &q in &query_paa {
            table.extend(self.cell_edges.iter().map(|&(lower, upper)| {
                let d = if q < lower {
                    lower - q
                } else if q > upper {
                    q - upper
                } else {
                    0.0
                };
                d * d
            }));
        }
        table
    }

    fn min_dist(&self, _query: &[f32], table: &Vec<f32>, node: usize) -> f32 {
        if node == 0 {
            return 0.0;
        }
        let cells = &self.cells[(node - 1) * self.word_len..][..self.word_len];
        let row_len = self.cell_edges.len();
        let mut acc = 0.0f32;
        for (i, &cell) in cells.iter().enumerate() {
            acc += table[i * row_len + cell as usize];
        }
        let scale = self.series_len as f32 / self.word_len as f32;
        (scale * acc).sqrt()
    }

    fn leaf_size(&self, node: usize) -> usize {
        self.collection.leaf_len(&self.nodes[node].leaf)
    }

    fn refine_leaf(
        &self,
        node: usize,
        query: &[f32],
        best_so_far: f32,
        stats: &mut QueryStats,
        accept: &mut dyn FnMut(usize, f32) -> f32,
    ) -> u64 {
        self.collection
            .refine_leaf(&self.nodes[node].leaf, query, best_so_far, stats, accept)
    }
}

impl AnnIndex for Isax2Plus {
    fn name(&self) -> &'static str {
        "iSAX2+"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact: true,
            ng_approximate: true,
            epsilon_approximate: true,
            delta_epsilon_approximate: true,
            disk_resident: true,
            streaming_insert: true,
            representation: Representation::Isax,
        }
    }

    fn num_series(&self) -> usize {
        self.collection.len()
    }

    fn series_len(&self) -> usize {
        self.series_len
    }

    fn memory_footprint(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<Node>()
                    + n.word.symbols.len() * (std::mem::size_of::<u16>() + std::mem::size_of::<u8>())
                    + n.children.len() * std::mem::size_of::<usize>()
            })
            .sum::<usize>()
            + self.collection.mapping_bytes()
            + self.breakpoints.len() * std::mem::size_of::<f32>()
            + self.cell_edges.len() * std::mem::size_of::<(f32, f32)>()
            + self.cells.len() * std::mem::size_of::<u16>()
    }

    fn store_counters(&self) -> Option<hydra_core::StoreCounters> {
        Some(self.collection.counters())
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult> {
        self.collection.check_lengths(&[query])?;
        let spec = SearchSpec::from_params(params, Some(&self.histogram));
        Ok(knn_search(self, query, &spec))
    }

    /// Batched search inside one storage working-set scope: the batch's
    /// predicted first leaves are pinned and prefetched
    /// ([`Collection::with_first_leaves`]), then every query runs exactly
    /// as [`Self::search`] would.
    fn search_batch(
        &self,
        queries: &[&[f32]],
        params: &SearchParams,
    ) -> Vec<Result<SearchResult>> {
        self.collection
            .with_first_leaves(self, |node| &self.nodes[node].leaf, queries, |query| {
                self.search(query, params)
            })
    }

    /// Streaming ingest by continuing the build's insert sequence: each new
    /// series is appended to the store (arrival order), routed to its leaf
    /// and split on overflow exactly as [`Isax2Plus::build`] would have done
    /// — so the grown tree's topology, membership and answers are identical
    /// to a fresh build over the full collection. The δ-ε histogram is
    /// re-sampled over the grown collection after the batch.
    fn insert_batch(&mut self, batch: &[&[f32]]) -> Result<()> {
        self.collection.check_lengths(batch)?;
        if batch.is_empty() {
            return Ok(());
        }
        self.collection.activate_growth(leaves_mut(&mut self.nodes));
        for series in batch {
            let id = self.collection.append(series)?;
            let word = self.full_word(series);
            self.insert_series(id, word, &FetchSource::Store);
        }
        self.histogram = self.collection.pairwise_histogram(
            self.config.histogram_samples,
            256,
            self.config.seed,
        );
        // A fresh build hands out a store with clean I/O counters; ingest
        // restores the same post-build state.
        self.collection.store().reset_io();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_data::{exact_knn, random_walk};
    use hydra_summarize::sax::{mindist_paa_isax, MAX_CARD_BITS};

    fn build_small(n: usize, len: usize) -> (Dataset, Isax2Plus) {
        let data = random_walk(n, len, 17);
        let config = IsaxConfig {
            sax: SaxParams::new(8, 8),
            leaf_capacity: 16,
            storage: StorageConfig::in_memory(),
            histogram_samples: 2_000,
            seed: 5,
        };
        let index = Isax2Plus::build(&data, config).unwrap();
        (data, index)
    }

    #[test]
    fn build_rejects_bad_inputs() {
        let empty = Dataset::new(8).unwrap();
        assert!(Isax2Plus::build(&empty, IsaxConfig::default()).is_err());
        let one = random_walk(1, 8, 0);
        let bad = IsaxConfig {
            leaf_capacity: 0,
            ..IsaxConfig::default()
        };
        assert!(Isax2Plus::build(&one, bad).is_err());
        // `SaxParams`' fields are public: values its constructor would have
        // clamped are refused with a typed error, by build and by load.
        let (data, index) = build_small(40, 16);
        let path =
            std::env::temp_dir().join(format!("hydra-isax-bad-sax-{}.snap", std::process::id()));
        index.save(&path).unwrap();
        for (segments, max_bits) in [(0, 8), (8, 0), (8, MAX_CARD_BITS + 1)] {
            let bad = IsaxConfig {
                sax: SaxParams { segments, max_bits },
                ..*index.config()
            };
            assert!(matches!(
                Isax2Plus::build(&data, bad),
                Err(Error::InvalidParameter(_))
            ));
            assert!(matches!(
                Isax2Plus::load(&path, &data, &bad),
                Err(PersistError::Corrupt(_))
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_series_land_in_exactly_one_leaf() {
        let (data, index) = build_small(600, 64);
        let total: usize = (1..index.nodes.len())
            .filter(|&i| index.is_leaf(i))
            .map(|i| index.leaf_size(i))
            .sum();
        assert_eq!(total, data.len());
        assert!(index.num_leaves() > 1);
        assert!(index.avg_leaf_fill() > 0.0 && index.avg_leaf_fill() <= 1.0);
        assert_eq!(index.name(), "iSAX2+");
        assert!(index.memory_footprint() > 0);
    }

    #[test]
    fn exact_search_matches_brute_force() {
        let (data, index) = build_small(400, 64);
        for qi in [0usize, 101, 399] {
            let query = data.series(qi);
            let res = index.search(query, &SearchParams::exact(10)).unwrap();
            let gt = exact_knn(&data, query, 10);
            for (a, b) in res.neighbors.iter().zip(gt.iter()) {
                assert!((a.distance - b.distance).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn epsilon_guarantee_holds() {
        let (data, index) = build_small(400, 64);
        let queries = random_walk(8, 64, 71);
        for eps in [1.0f32, 3.0] {
            for q in queries.iter() {
                let res = index.search(q, &SearchParams::epsilon(5, eps)).unwrap();
                let gt = exact_knn(&data, q, 5);
                let bound = (1.0 + eps) * gt[4].distance + 1e-4;
                for n in &res.neighbors {
                    assert!(n.distance <= bound);
                }
            }
        }
    }

    #[test]
    fn ng_search_respects_leaf_budget() {
        let (_, index) = build_small(600, 64);
        let queries = random_walk(3, 64, 3);
        for q in queries.iter() {
            let res = index.search(q, &SearchParams::ng(5, 1)).unwrap();
            assert!(res.stats.leaves_visited <= 1);
            assert!(!res.neighbors.is_empty());
            let res3 = index.search(q, &SearchParams::ng(5, 3)).unwrap();
            assert!(res3.stats.leaves_visited <= 3);
            assert!(res3.kth_distance() <= res.kth_distance() + 1e-6);
        }
    }

    #[test]
    fn exact_search_prunes_part_of_the_dataset() {
        let (data, index) = build_small(1000, 64);
        let q = data.series(7);
        let res = index.search(q, &SearchParams::exact(1)).unwrap();
        assert_eq!(res.neighbors[0].index, 7);
        assert!((res.stats.series_scanned as usize) < data.len());
    }

    #[test]
    fn search_rejects_wrong_dimension() {
        let (_, index) = build_small(50, 64);
        assert!(index.search(&[0.0; 16], &SearchParams::exact(1)).is_err());
    }

    #[test]
    fn snapshot_roundtrip_answers_identically_and_checks_fingerprint() {
        let (data, index) = build_small(300, 64);
        let path = std::env::temp_dir().join(format!(
            "hydra-isax-roundtrip-{}.snap",
            std::process::id()
        ));
        index.save(&path).unwrap();
        let loaded = Isax2Plus::load(&path, &data, index.config()).unwrap();
        for qi in [0usize, 50, 299] {
            let q = data.series(qi);
            for params in [SearchParams::exact(5), SearchParams::ng(5, 2)] {
                let a = index.search(q, &params).unwrap();
                let b = loaded.search(q, &params).unwrap();
                assert_eq!(a.neighbors.len(), b.neighbors.len());
                for (x, y) in a.neighbors.iter().zip(b.neighbors.iter()) {
                    assert_eq!(x.index, y.index);
                    assert_eq!(x.distance.to_bits(), y.distance.to_bits());
                }
                assert_eq!(a.stats, b.stats, "loaded tree must pay identical costs");
            }
        }
        // A different build configuration must be refused, not absorbed.
        let other = IsaxConfig {
            leaf_capacity: index.config().leaf_capacity + 1,
            ..*index.config()
        };
        assert!(matches!(
            Isax2Plus::load(&path, &data, &other),
            Err(hydra_persist::PersistError::FingerprintMismatch { .. })
        ));
        // So must different data of the same shape.
        let other_data = random_walk(300, 64, 999);
        assert!(matches!(
            Isax2Plus::load(&path, &other_data, index.config()),
            Err(hydra_persist::PersistError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ingest_matches_fresh_build_and_compacts_snapshots() {
        let data = random_walk(300, 64, 17);
        let config = IsaxConfig {
            sax: SaxParams::new(8, 8),
            leaf_capacity: 16,
            storage: StorageConfig::in_memory(),
            histogram_samples: 2_000,
            seed: 5,
        };
        let fresh = Isax2Plus::build(&data, config).unwrap();

        let head = Dataset::from_flat(64, data.as_flat()[..180 * 64].to_vec()).unwrap();
        let tail: Vec<&[f32]> = (180..300).map(|i| data.series(i)).collect();

        // Grow a freshly built tree and one round-tripped through a
        // snapshot (whose leaves must be re-hydrated from their extents).
        let built = Isax2Plus::build(&head, config).unwrap();
        let path = std::env::temp_dir().join(format!(
            "hydra-isax-ingest-{}.snap",
            std::process::id()
        ));
        built.save(&path).unwrap();
        let loaded = Isax2Plus::load(&path, &head, &config).unwrap();
        std::fs::remove_file(&path).ok();

        for mut grown in [built, loaded] {
            grown.insert_batch(&tail[..43]).unwrap();
            grown.insert_batch(&tail[43..]).unwrap();
            assert_eq!(grown.num_series(), fresh.num_series());
            assert_eq!(grown.nodes.len(), fresh.nodes.len());
            for qi in [0usize, 50, 200, 299] {
                let q = data.series(qi);
                for params in [
                    SearchParams::exact(5),
                    SearchParams::ng(5, 2),
                    SearchParams::delta_epsilon(5, 0.9, 1.0),
                ] {
                    let a = fresh.search(q, &params).unwrap();
                    let b = grown.search(q, &params).unwrap();
                    assert_eq!(a.neighbors.len(), b.neighbors.len());
                    for (x, y) in a.neighbors.iter().zip(b.neighbors.iter()) {
                        assert_eq!(x.index, y.index);
                        assert_eq!(x.distance.to_bits(), y.distance.to_bits());
                    }
                    // CPU-side costs match; only page-level I/O economics
                    // may differ (the grown store is arrival-interleaved).
                    assert_eq!(a.stats.distance_computations, b.stats.distance_computations);
                    assert_eq!(a.stats.leaves_visited, b.stats.leaves_visited);
                    assert_eq!(a.stats.series_scanned, b.stats.series_scanned);
                }
            }

            // Saving a grown tree compacts it back to the canonical
            // leaf-order layout: bytes identical to the fresh build's.
            let dir = std::env::temp_dir();
            let fresh_path =
                dir.join(format!("hydra-isax-fresh-{}.snap", std::process::id()));
            let grown_path =
                dir.join(format!("hydra-isax-grown-{}.snap", std::process::id()));
            fresh.save(&fresh_path).unwrap();
            grown.save(&grown_path).unwrap();
            assert_eq!(
                std::fs::read(&fresh_path).unwrap(),
                std::fs::read(&grown_path).unwrap(),
                "a grown iSAX2+ tree must snapshot byte-identically to a fresh build"
            );
            std::fs::remove_file(&fresh_path).ok();
            std::fs::remove_file(&grown_path).ok();

            // Dimension mismatches reject the whole batch without growing.
            let before = grown.num_series();
            assert!(grown.insert_batch(&[&[0.0f32; 3]]).is_err());
            assert_eq!(grown.num_series(), before);
        }
    }

    #[test]
    fn prepared_min_dist_equals_the_paa_mindist_on_every_node() {
        // (series length, segments, max_bits); the last series is shorter
        // than its word, so the word is clamped to the series.
        for (len, segments, max_bits) in [(64, 8, 8), (64, 16, 8), (64, 8, 3), (6, 8, 8)] {
            let data = random_walk(500, len, 17);
            let config = IsaxConfig {
                sax: SaxParams::new(segments, max_bits),
                leaf_capacity: 16,
                storage: StorageConfig::in_memory(),
                histogram_samples: 2_000,
                seed: 5,
            };
            let built = Isax2Plus::build(&data, config).unwrap();
            // The same collection, the last 200 series ingested in uneven
            // chunks, and the built tree round-tripped through a snapshot.
            let head = Dataset::from_flat(len, data.as_flat()[..300 * len].to_vec()).unwrap();
            let mut grown = Isax2Plus::build(&head, config).unwrap();
            let tail: Vec<&[f32]> = (300..500).map(|i| data.series(i)).collect();
            for chunk in tail.chunks(37) {
                grown.insert_batch(chunk).unwrap();
            }
            let path = std::env::temp_dir().join(format!(
                "hydra-isax-cells-{}-{len}-{segments}-{max_bits}.snap",
                std::process::id()
            ));
            built.save(&path).unwrap();
            let loaded = Isax2Plus::load(&path, &data, &config).unwrap();
            std::fs::remove_file(&path).ok();
            assert_eq!(grown.nodes.len(), built.nodes.len());
            assert_eq!(grown.cells, built.cells);
            assert_eq!(loaded.cells, built.cells);

            let queries = random_walk(6, len, 99);
            for index in [&built, &grown, &loaded] {
                for q in queries.iter().chain([data.series(3)]) {
                    let prepared = index.prepare(q);
                    assert_eq!(index.min_dist(q, &prepared, 0), 0.0, "the virtual root");
                    for node in 1..index.nodes.len() {
                        let want = mindist_paa_isax(
                            &paa(q, segments),
                            &index.nodes[node].word,
                            &index.breakpoints,
                            len,
                            max_bits,
                        );
                        assert_eq!(
                            index.min_dist(q, &prepared, node).to_bits(),
                            want.to_bits(),
                            "len {len} segments {segments} max_bits {max_bits} node {node}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn isax_has_more_leaves_than_dstree_like_fill() {
        // Sanity property the paper relies on: iSAX2+ leaves are not
        // perfectly filled because regions are fixed by SAX words.
        let (_, index) = build_small(600, 64);
        assert!(index.avg_leaf_fill() < 1.0);
    }
}
