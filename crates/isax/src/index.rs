//! The iSAX2+ tree.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::path::Path;

use hydra_core::search::SearchSpec;
use hydra_core::{
    check_query, knn_search, AnnIndex, Capabilities, Dataset, DistanceHistogram, HierarchicalIndex,
    QueryStats, Representation, Result, SearchParams, SearchResult,
};
use hydra_persist::{
    DataSource, Fingerprint, GapTable, Leaf, LeafTree, LeafTreeConfig, PersistError,
    PersistentIndex, StoreBacking, TreeNode, Ungated,
};
use hydra_storage::{SeriesStore, StorageConfig};
use hydra_summarize::sax::{value_to_symbol, IsaxWord, SaxParams};

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

impl IsaxConfig {
    /// What the leaf-ordered frame reads of the configuration.
    fn frame(&self) -> LeafTreeConfig {
        LeafTreeConfig {
            leaf_capacity: self.leaf_capacity,
            storage: self.storage,
            histogram_samples: self.histogram_samples,
            seed: self.seed,
            words: self.sax,
        }
    }
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
}

impl TreeNode for Node {
    /// Node 0 is the virtual root, whose children are the 1-bit root words.
    const VIRTUAL_ROOT: bool = true;

    fn children(&self) -> &[usize] {
        &self.children
    }

    fn leaf(&self) -> &Leaf {
        &self.leaf
    }

    fn leaf_mut(&mut self) -> &mut Leaf {
        &mut self.leaf
    }
}

/// The iSAX2+ index.
///
/// # Lower bounds by table lookup
///
/// A node's [`IsaxWord`] stays the source of truth for insertion, splitting
/// and persistence. For search, every node `n >= 1` also has an *envelope*:
/// per segment, the interval `[lo, hi]` of full-cardinality symbols a
/// series beneath it can take. An internal node's envelope is the region
/// its word names (segment `i` at `bits` bits spans the symbols
/// `prefix << shift ..= ((prefix + 1) << shift) - 1`); a leaf's is the
/// envelope of what it holds — the per-segment minimum and maximum of its
/// members' symbols, widened on insert, recomputed for both children on a
/// split. The envelopes of all nodes live in one flat `u8` array
/// (`2 * word_len` per node, in node order, the virtual root having none).
///
/// [`HierarchicalIndex::prepare`] makes two per-query tables
/// ([`PreparedQuery`]). The first is the word column's [`GapTable`]: for
/// every segment and every symbol `s`, the squared gap from the query's PAA
/// to `s`'s cell (zero inside it). The second splits each gap into a
/// `[below, above]` pair: the gap when the PAA lies *below* the cell's
/// lower breakpoint, and when it lies *above* its upper one. At most one of
/// the pair is not zero; which one follows from the PAA's own cell.
/// [`HierarchicalIndex::min_dist`] is then `below[lo] + above[hi]` per
/// segment, summed in segment order. On an internal node those are the
/// additions of [`hydra_summarize::sax::mindist_paa_isax`] over its word,
/// bit for bit.
///
/// The full-cardinality word the insert path computes for every series is
/// kept too, in the store-row-ordered [`hydra_persist::WordColumn`] of the
/// [`LeafTree`] frame that holds the nodes, raw series and histogram, as
/// DSTree's does. [`HierarchicalIndex::refine_leaf`] bounds each member of
/// a popped leaf by its word's gaps, one read per segment, and hands the
/// store a *gate*: a member whose bound strictly exceeds the live
/// best-so-far is skipped before its raw series is read — it is one the
/// early-abandoning kernel would have refused, so answers and distance bits
/// do not depend on the gate; only the series read and compared do. A
/// series is the envelope `[s, s]`, and `below[s] + above[s]` is its gap
/// exactly, so the member gate sums the gaps in segment order too: a
/// leaf's bound is then at most each member's, bit for bit. Every bound is
/// scaled by the column's weight, the length of the shortest PAA segment.
///
/// Words and envelopes are derived data, never persisted: a snapshot load
/// rebuilds the words ([`hydra_persist::WordColumn::rebuild`]) and the
/// envelopes from them.
///
/// **How this differs from the paper's iSAX2+.** There a leaf is bounded by
/// its node word alone and every series of a visited leaf is read; the
/// per-series summaries serve the build only. Bounding a leaf by its
/// members' envelope and gating members on their own words is the step
/// ADS+'s SIMS and its successors take. Both bounds are at least the word's
/// (the envelope lies inside the word's region), so exact answers are the
/// paper's, while fewer leaves are visited and fewer series read: the
/// pruning ratio of fig 5 and the iSAX2+ timings of figs 3–4 are this
/// variant's, not the original's. Leaves are also *ordered* by the tighter
/// bound, so ng answers (which stop after `nprobe` leaves) can differ from
/// a word-ordered traversal's; ε and δ-ε answers stay inside their
/// guarantee, but at the same ε a search stops sooner — nearer the
/// guarantee's edge, and faster.
pub struct Isax2Plus {
    config: IsaxConfig,
    frame: LeafTree<Node>,
    /// Segments per word: `config.sax.segments`, clamped to the series
    /// length as the words are.
    word_len: usize,
    /// The envelope of node `n >= 1` at `(n - 1) * 2 * word_len ..`: the
    /// `word_len` lows, then the `word_len` highs.
    envelopes: Vec<u8>,
    /// Root children by the 1-bit prefixes of their word: build/ingest-time
    /// scratch, rebuilt from the root's children when stale.
    root_children: HashMap<Vec<u16>, usize>,
}

/// What an iSAX2+ search computes of a query once
/// ([`HierarchicalIndex::prepare`]; see [`Isax2Plus`]).
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// Per segment (row) and symbol, the squared gap from the query's PAA
    /// to the symbol's cell as `[below, above]`: the PAA under the cell's
    /// lower breakpoint, or over its upper one; zero otherwise. What node
    /// and leaf envelopes read.
    pairs: Vec<[f32; 2]>,
    /// The same gaps, one per symbol: what the member gate reads.
    gaps: GapTable,
}

/// The 1-bit prefix of every segment: what decides the root child of a
/// full-cardinality word.
fn root_key(word: &IsaxWord, max_bits: u8) -> Vec<u16> {
    word.symbols.iter().map(|s| s >> (max_bits - 1)).collect()
}

/// Widens `envelope` (lows, then highs) to cover `symbols`.
fn widen(envelope: &mut [u8], symbols: &[u8]) {
    let (lows, highs) = envelope.split_at_mut(symbols.len());
    for ((lo, hi), &s) in lows.iter_mut().zip(highs).zip(symbols) {
        *lo = (*lo).min(s);
        *hi = (*hi).max(s);
    }
}

impl Isax2Plus {
    /// Builds an iSAX2+ index over `dataset`.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or the configuration is
    /// invalid.
    pub fn build(dataset: &Dataset, config: IsaxConfig) -> Result<Self> {
        let mut index = Self::around(config, LeafTree::new(dataset, config.frame())?);
        index.push_node(IsaxWord {
            symbols: Vec::new(),
            bits: Vec::new(),
        });
        hydra_persist::while_fingerprinting(dataset, || {
            for id in 0..dataset.len() {
                index.frame.push_word(dataset.series(id));
                index.insert_series(id);
            }
        });
        index.frame.lay_out(dataset)?;
        // The root fan-out map was build-time scratch.
        index.root_children = HashMap::new();
        Ok(index)
    }

    /// An index around `frame` with no envelopes yet.
    fn around(config: IsaxConfig, frame: LeafTree<Node>) -> Self {
        Self {
            config,
            word_len: frame.words.word_len(),
            envelopes: Vec::new(),
            root_children: HashMap::new(),
            frame,
        }
    }

    /// The kept word of the series with dataset id `id`.
    fn word_of(&self, id: usize) -> &[u8] {
        self.frame.words.of_id(&self.frame.collection, id)
    }

    /// Where `envelopes` keeps node `node >= 1`.
    fn envelope_range(&self, node: usize) -> std::ops::Range<usize> {
        (node - 1) * 2 * self.word_len..node * 2 * self.word_len
    }

    /// Widens leaf `node`'s envelope to cover the series with id `id`.
    fn cover(&mut self, node: usize, id: usize) {
        let envelope = self.envelope_range(node);
        widen(
            &mut self.envelopes[envelope],
            self.frame.words.of_id(&self.frame.collection, id),
        );
    }

    /// Routes one series (by dataset position, its full-cardinality word
    /// already kept as the next row of `words`) to its leaf, splitting on
    /// overflow — the single insertion path shared by [`Isax2Plus::build`]
    /// and streaming ingest, which is what makes the two produce identical
    /// trees for the same insert sequence.
    fn insert_series(&mut self, id: usize) {
        let max_bits = self.config.sax.max_bits;
        let word = IsaxWord {
            symbols: self.word_of(id).iter().map(|&s| s.into()).collect(),
            bits: vec![max_bits; self.word_len],
        };

        // Find (or create) the root child whose 1-bit word covers this
        // series — at most one does, so a lookup by those bits finds the
        // child a scan of the root's children would.
        if self.root_children.len() != self.frame.nodes[0].children.len() {
            self.root_children = self.frame.nodes[0]
                .children
                .iter()
                .map(|&c| (root_key(&self.frame.nodes[c].word, max_bits), c))
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
                self.frame.nodes[0].children.push(child);
                self.root_children.insert(key, child);
                child
            }
        };

        // Descend to a leaf.
        loop {
            if self.frame.is_leaf(current) {
                break;
            }
            let next = self.frame.nodes[current]
                .children
                .iter()
                .copied()
                .find(|&c| self.frame.nodes[c].word.contains(&word, max_bits))
                .expect("internal node children partition the region");
            current = next;
        }

        self.frame.nodes[current].leaf.members.push(id);
        self.cover(current, id);
        if self.frame.nodes[current].leaf.members.len() > self.config.leaf_capacity {
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
        let word = self.frame.nodes[node_id].word.clone();
        let members = std::mem::take(&mut self.frame.nodes[node_id].leaf.members);

        // Choose the most balanced split among promotable segments.
        let mut best: Option<(usize, usize)> = None; // (segment, imbalance)
        for seg in 0..word.len() {
            if word.bits[seg] >= max_bits {
                continue;
            }
            let new_bits = word.bits[seg] + 1;
            let shift = max_bits - new_bits;
            let left_count = members
                .iter()
                .filter(|&&id| (self.word_of(id)[seg] >> shift) & 1 == 0)
                .count();
            let imbalance = (2 * left_count).abs_diff(members.len());
            if best.map(|(_, b)| imbalance < b).unwrap_or(true) {
                best = Some((seg, imbalance));
            }
        }
        let Some((seg, _)) = best else {
            // Every segment is at maximum cardinality: the node cannot be
            // refined further and keeps its oversized membership.
            self.frame.nodes[node_id].leaf.members = members;
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
        for id in members {
            let target = if (self.word_of(id)[seg] >> shift) & 1 == 0 {
                left_id
            } else {
                right_id
            };
            self.frame.nodes[target].leaf.members.push(id);
            self.cover(target, id);
        }
        self.frame.nodes[node_id].children = vec![left_id, right_id];
        // No longer a leaf: bounded by its word from here on.
        let (envelope, region) = (self.envelope_range(node_id), self.region(&word));
        self.envelopes[envelope].copy_from_slice(&region);

        // A pathological distribution can leave one child overflowing (all
        // members share the promoted bit); recurse on it.
        for child in [left_id, right_id] {
            if self.frame.nodes[child].leaf.members.len() > self.config.leaf_capacity {
                self.split_leaf(child);
            }
        }
    }

    /// The envelope of everything `word` covers: its region.
    fn region(&self, word: &IsaxWord) -> Vec<u8> {
        let max_bits = self.config.sax.max_bits;
        let lows = (0..word.len())
            .map(|i| word.truncated_symbol(i, max_bits) << (max_bits - word.bits[i]));
        let highs = lows
            .clone()
            .zip(&word.bits)
            .map(|(lo, bits)| lo | ((1 << (max_bits - bits)) - 1));
        lows.chain(highs).map(|s| s as u8).collect()
    }

    /// Appends the envelope of a leaf holding nothing yet: the empty one,
    /// which the first member widens to itself.
    fn push_empty_envelope(&mut self, word_len: usize) {
        let top = (self.config.sax.max_cardinality() - 1) as u8;
        self.envelopes.extend(std::iter::repeat_n(top, word_len));
        self.envelopes.extend(std::iter::repeat_n(0, word_len));
    }

    fn push_node(&mut self, word: IsaxWord) -> usize {
        let id = self.frame.nodes.len();
        self.push_empty_envelope(word.len());
        self.frame.nodes.push(Node {
            word,
            children: Vec::new(),
            leaf: Leaf::default(),
        });
        id
    }

    /// The squared lower bound of an envelope (lows, then highs): its
    /// per-segment `below[lo] + above[hi]` looked up in the query's pair
    /// table and summed in segment order.
    fn bound_squared(&self, prepared: &PreparedQuery, lows: &[u8], highs: &[u8]) -> f32 {
        let mut acc = 0.0f32;
        for ((row, &lo), &hi) in prepared
            .pairs
            .chunks_exact(self.frame.words.cells())
            .zip(lows)
            .zip(highs)
        {
            acc += row[lo as usize][0] + row[hi as usize][1];
        }
        self.frame.words.weight() * acc
    }

    /// The squared lower bound on the distance from the query `prepared`
    /// was made for to the series in store row `row`, from its kept word:
    /// its gaps, summed in segment order as an envelope's are.
    fn member_bound_squared(&self, prepared: &PreparedQuery, row: usize) -> f32 {
        let gaps = prepared.gaps.dims().iter().zip(self.frame.words.row(row));
        self.frame.words.weight() * gaps.fold(0.0f32, |acc, (g, &s)| acc + g[s as usize])
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.frame.num_leaves()
    }

    /// Average leaf fill factor. The paper observes that iSAX2+ has more,
    /// emptier leaves than DSTree, which is what drives its higher random
    /// I/O count.
    pub fn avg_leaf_fill(&self) -> f64 {
        self.frame.avg_leaf_fill()
    }

    /// The simulated storage layer holding the raw series.
    pub fn store(&self) -> &SeriesStore {
        self.frame.collection.store()
    }

    /// The distance histogram used for δ-ε-approximate search, sampled
    /// first if an ingest batch reset it ([`LeafTree::histogram`]).
    pub fn histogram(&self) -> &DistanceHistogram {
        self.frame.histogram()
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &IsaxConfig {
        &self.config
    }

    /// This tree with every member of a visited leaf read and compared — no
    /// gate: the reference its gated search is held to.
    pub fn ungated(&self) -> Ungated<'_, Self> {
        self.frame.ungated(self)
    }
}

impl PersistentIndex for Isax2Plus {
    type Config = IsaxConfig;
    const KIND: &'static str = "isax2+";

    fn hash_config(config: &IsaxConfig, f: &mut Fingerprint) {
        f.push_usize(config.sax.segments);
        f.push_u64(config.sax.max_bits as u64);
        f.push_usize(config.leaf_capacity);
        f.push_usize(config.histogram_samples);
        f.push_u64(config.seed);
    }

    /// Snapshots the tree topology (iSAX words, children, leaf extents) in
    /// the frame's layout ([`LeafTree::save`]). The raw series are *not*
    /// stored: `load` re-attaches the leaf-ordered [`SeriesStore`] from its
    /// `dataset` argument (resident or file-backed).
    fn save(&self, path: &Path) -> hydra_persist::Result<()> {
        self.frame.save::<Self>(path, &self.config, |node, sec, (start, len)| {
            sec.put_u16s(&node.word.symbols);
            sec.put_u8s(&node.word.bits);
            sec.put_usizes(&node.children);
            sec.put_usize(start);
            sec.put_usize(len);
        })
    }

    fn load_from(
        path: &Path,
        source: DataSource<'_>,
        config: &IsaxConfig,
        backing: StoreBacking<'_>,
    ) -> hydra_persist::Result<Self> {
        let max_bits = config.sax.max_bits;
        let shape = config.frame();
        let frame = LeafTree::load::<Self>(path, source, config, backing, shape, |sec, slot| {
            let symbols = sec.get_u16s()?;
            let bits = sec.get_u8s()?;
            // The virtual root has the empty word; every other word has
            // one in-range symbol per segment, which is what keeps its
            // cell ids inside the per-query table.
            let word_len = if slot.id == 0 {
                0
            } else {
                config.sax.segments.min(slot.series_len)
            };
            if symbols.len() != word_len
                || bits.len() != word_len
                || bits.iter().any(|b| !(1..=max_bits).contains(b))
                || symbols.iter().any(|s| s >> max_bits != 0)
            {
                return Err(PersistError::Corrupt(
                    "iSAX word does not fit the SAX parameters".into(),
                ));
            }
            Ok(Node {
                word: IsaxWord { symbols, bits },
                children: sec.get_usizes()?,
                leaf: slot.leaf(sec)?,
            })
        })?;

        let mut index = Self::around(*config, frame);
        let mut runs = Vec::new();
        for id in 1..index.frame.nodes.len() {
            if !index.frame.is_leaf(id) {
                let region = index.region(&index.frame.nodes[id].word);
                index.envelopes.extend(region);
                continue;
            }
            index.push_empty_envelope(index.word_len);
            runs.clear();
            index.frame.collection.leaf_ranges(&index.frame.nodes[id].leaf, &mut runs);
            let envelope = index.envelope_range(id);
            for row in runs.iter().flat_map(|&(start, count)| start..start + count) {
                widen(&mut index.envelopes[envelope.clone()], index.frame.words.row(row));
            }
        }
        Ok(index)
    }
}

impl HierarchicalIndex for Isax2Plus {
    /// The query's gap table and its `[below, above]` split.
    type Prepared = PreparedQuery;

    fn roots(&self) -> &[usize] {
        &[0]
    }

    fn is_leaf(&self, node: usize) -> bool {
        self.frame.is_leaf(node)
    }

    fn children(&self, node: usize) -> &[usize] {
        self.frame.children(node)
    }

    fn prepare(&self, query: &[f32]) -> PreparedQuery {
        let query_paa = self.frame.paa(query);
        let (words, breakpoints) = (&self.frame.words, self.frame.words.breakpoints());
        let gaps = words.gaps(&query_paa);
        let mut pairs = Vec::with_capacity(query_paa.len() * words.cells());
        for (&q, row) in query_paa.iter().zip(gaps.dims()) {
            // The PAA lies in its own cell: below every cell above that one
            // (the gap is `below`'s) and above every cell under it
            // (`above`'s).
            let own = value_to_symbol(q, breakpoints) as usize;
            let split = |(s, &gap): (usize, &f32)| match s.cmp(&own) {
                Ordering::Greater => [gap, 0.0],
                Ordering::Less => [0.0, gap],
                Ordering::Equal => [0.0, 0.0],
            };
            pairs.extend(row[..words.cells()].iter().enumerate().map(split));
        }
        PreparedQuery { pairs, gaps }
    }

    fn min_dist(&self, _query: &[f32], prepared: &PreparedQuery, node: usize) -> f32 {
        if node == 0 {
            return 0.0;
        }
        let (lows, highs) = self.envelopes[self.envelope_range(node)].split_at(self.word_len);
        self.bound_squared(prepared, lows, highs).sqrt()
    }

    fn leaf_size(&self, node: usize) -> usize {
        self.frame.leaf_size(node)
    }

    fn refine_leaf(
        &self,
        node: usize,
        query: &[f32],
        prepared: &PreparedQuery,
        best_so_far: f32,
        stats: &mut QueryStats,
        accept: &mut dyn FnMut(usize, f32) -> f32,
    ) -> u64 {
        self.frame.refine_leaf(
            node,
            query,
            best_so_far,
            stats,
            // Strictly beyond the bound is what the early-abandoning kernel
            // refuses; a member at the bound is still compared.
            |row, bound| self.member_bound_squared(prepared, row) <= bound * bound,
            accept,
        )
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
        self.frame.collection.len()
    }

    fn series_len(&self) -> usize {
        self.frame.collection.series_len()
    }

    fn memory_footprint(&self) -> usize {
        self.frame.nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<Node>()
                    + n.word.symbols.len() * (std::mem::size_of::<u16>() + std::mem::size_of::<u8>())
                    + n.children.len() * std::mem::size_of::<usize>()
            })
            .sum::<usize>()
            + self.frame.collection.mapping_bytes()
            + self.envelopes.len()
            + self.frame.words.heap_bytes()
    }

    fn store_counters(&self) -> Option<hydra_core::StoreCounters> {
        Some(self.frame.collection.counters())
    }

    fn search(&self, query: &[f32], params: &SearchParams) -> Result<SearchResult> {
        check_query(self.capabilities(), self.series_len(), query, params)?;
        let spec = SearchSpec::from_params(params, || Some(self.histogram()));
        Ok(knn_search(self, query, &spec))
    }

    /// Batched search: the batch's workers ([`Collection::answer_batch`])
    /// answer the queries, each exactly as [`Self::search`] would, in query
    /// order. Nothing is shared across queries.
    ///
    /// [`Collection::answer_batch`]: hydra_persist::Collection::answer_batch
    fn search_batch(
        &self,
        queries: &[&[f32]],
        params: &SearchParams,
    ) -> Vec<Result<SearchResult>> {
        self.frame.collection.answer_batch(queries, |query| self.search(query, params))
    }

    /// Streaming ingest by continuing the build's insert sequence: each new
    /// series is appended to the store (arrival order), routed to its leaf
    /// and split on overflow exactly as [`Isax2Plus::build`] would have done
    /// — so the grown tree's topology, membership and answers are identical
    /// to a fresh build over the full collection. The batch resets the δ-ε
    /// histogram; the next δ-ε query or save samples it over the grown
    /// collection.
    fn insert_batch(&mut self, batch: &[&[f32]]) -> Result<()> {
        if !self.frame.begin_ingest(batch)? {
            return Ok(());
        }
        for series in batch {
            let id = self.frame.collection.append(series)?;
            self.frame.push_word(series);
            self.insert_series(id);
        }
        self.frame.end_ingest();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::{euclidean, euclidean_early_abandon, Error};
    use hydra_data::{exact_knn, noisy_queries, random_walk};
    use hydra_summarize::paa::paa;
    use hydra_summarize::sax::{mindist_paa_isax, normal_breakpoints, sax_word, MAX_CARD_BITS};

    /// (series length, segments, max_bits); 24 points make segments of one
    /// and two points, and the last series is shorter than its word, so the
    /// word is clamped to the series.
    const SHAPES: [(usize, usize, u8); 5] =
        [(64, 8, 8), (64, 16, 8), (64, 8, 3), (24, 16, 8), (6, 8, 8)];

    fn config_of(segments: usize, max_bits: u8) -> IsaxConfig {
        IsaxConfig {
            sax: SaxParams::new(segments, max_bits),
            leaf_capacity: 16,
            storage: StorageConfig::in_memory(),
            histogram_samples: 2_000,
            seed: 5,
        }
    }

    fn build_small(n: usize, len: usize) -> (Dataset, Isax2Plus) {
        let data = random_walk(n, len, 17);
        let index = Isax2Plus::build(&data, config_of(8, 8)).unwrap();
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
        let total: usize = (1..index.frame.nodes.len())
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
            assert_eq!(grown.frame.nodes.len(), fresh.frame.nodes.len());
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
        for (len, segments, max_bits) in SHAPES {
            let data = random_walk(500, len, 17);
            let config = config_of(segments, max_bits);
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
            assert_eq!(grown.frame.nodes.len(), built.frame.nodes.len());
            assert_eq!(grown.envelopes, built.envelopes);
            assert_eq!(loaded.envelopes, built.envelopes);

            let queries = random_walk(6, len, 99);
            for index in [&built, &grown, &loaded] {
                for q in queries.iter().chain([data.series(3)]) {
                    let prepared = index.prepare(q);
                    assert_eq!(index.min_dist(q, &prepared, 0), 0.0, "the virtual root");
                    for node in 1..index.frame.nodes.len() {
                        let want = mindist_paa_isax(
                            &paa(q, segments),
                            &index.frame.nodes[node].word,
                            index.frame.words.breakpoints(),
                            len,
                            max_bits,
                        );
                        // The table lookup over a word's region is the PAA
                        // mindist of the word, on every node; it is what
                        // bounds an internal node, and a leaf's envelope
                        // can only bound tighter.
                        let region = index.region(&index.frame.nodes[node].word);
                        let (lows, highs) = region.split_at(index.word_len);
                        assert_eq!(
                            index.bound_squared(&prepared, lows, highs).sqrt().to_bits(),
                            want.to_bits(),
                            "len {len} segments {segments} max_bits {max_bits} node {node}"
                        );
                        let got = index.min_dist(q, &prepared, node);
                        if index.is_leaf(node) {
                            assert!(got >= want);
                        } else {
                            assert_eq!(got.to_bits(), want.to_bits());
                        }
                    }
                }
            }
        }
    }

    /// Every leaf member as `(node, store row, dataset id)`, whatever state
    /// the collection is in.
    fn members_by_row(index: &Isax2Plus) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for node in (1..index.frame.nodes.len()).filter(|&n| index.is_leaf(n)) {
            let leaf = &index.frame.nodes[node].leaf;
            let mut runs = Vec::new();
            index.frame.collection.leaf_ranges(leaf, &mut runs);
            let mut rows = runs.iter().flat_map(|&(start, count)| start..start + count);
            index
                .frame
                .collection
                .visit_leaf(leaf, &mut QueryStats::new(), &mut |id, _| {
                    out.push((node, rows.next().unwrap(), id));
                });
        }
        index.store().reset_io();
        out
    }

    #[test]
    fn member_and_leaf_bounds_never_exceed_what_they_bound() {
        for (len, segments, max_bits) in SHAPES {
            for seed in [17u64, 23, 99] {
                let data = random_walk(400, len, seed);
                let index = Isax2Plus::build(&data, config_of(segments, max_bits)).unwrap();
                let members = members_by_row(&index);
                assert_eq!(members.len(), data.len());
                let noisy = noisy_queries(&data, 9, &[0.0, 0.1, 0.5], seed + 1);
                let walks = random_walk(3, len, seed + 2);
                for q in noisy.iter().chain(walks.iter()) {
                    let table = index.prepare(q);
                    let mut closest_member = vec![f32::INFINITY; index.frame.nodes.len()];
                    for &(node, row, id) in &members {
                        let bound = index.member_bound_squared(&table, row).sqrt();
                        let distance = euclidean(q, data.series(id));
                        assert!(
                            bound <= distance,
                            "len {len} segments {segments} max_bits {max_bits}: \
                             series {id} bounded at {bound}, is at {distance}"
                        );
                        closest_member[node] = closest_member[node].min(bound);
                    }
                    for node in (1..index.frame.nodes.len()).filter(|&n| index.is_leaf(n)) {
                        assert!(index.min_dist(q, &table, node) <= closest_member[node]);
                    }
                }
            }
        }
    }

    #[test]
    fn a_member_whose_bound_equals_the_best_so_far_is_still_compared() {
        // One and two points per segment, so a piecewise-constant series
        // summarizes without rounding. The query is zero; the series sits on
        // a positive breakpoint over its first segment (the lower edge of its
        // cell, which is therefore exactly as far from the query as the
        // series) and on zero elsewhere: bound and distance are one number.
        for (len, segments) in [(8usize, 8usize), (32, 16)] {
            let config = config_of(segments, 8);
            let breakpoints = normal_breakpoints(config.sax.max_cardinality());
            for edge in [130usize, 200, 254] {
                let mut series = vec![0.0f32; len];
                series[..len / segments].fill(breakpoints[edge]);
                let mut data = random_walk(40, len, 3);
                data.push(&series).unwrap();
                let index = Isax2Plus::build(&data, config).unwrap();
                let &(node, row, _) = members_by_row(&index)
                    .iter()
                    .find(|&&(_, _, id)| id == 40)
                    .unwrap();
                let query = vec![0.0f32; len];
                let table = index.prepare(&query);
                let bound = index.member_bound_squared(&table, row).sqrt();
                assert_eq!(bound.to_bits(), euclidean(&query, &series).to_bits());

                // Around the tie the gate lets through exactly what the
                // kernel accepts; at it (one point per segment: the square
                // root is exact) that is the series itself.
                for best_so_far in [bound.next_down(), bound, bound.next_up()] {
                    let mut accepted = Vec::new();
                    let mut stats = QueryStats::new();
                    index.refine_leaf(
                        node,
                        &query,
                        &table,
                        best_so_far,
                        &mut stats,
                        &mut |id, _| {
                            accepted.push(id);
                            best_so_far
                        },
                    );
                    assert_eq!(
                        accepted.contains(&40),
                        euclidean_early_abandon(&query, &series, best_so_far).is_some(),
                        "len {len} edge {edge} best-so-far {best_so_far}"
                    );
                    if len == segments {
                        assert_eq!(accepted.contains(&40), best_so_far >= bound);
                    }
                }
            }
        }
    }

    #[test]
    fn exact_search_is_exact_when_segments_are_uneven() {
        // 24 points in 16 segments: the even segments hold one point, the
        // odd ones two. `near` sits on a breakpoint over every one-point
        // segment and on zero elsewhere, so its word bounds it at exactly
        // its distance when each segment weighs one point; weighing each
        // 24 / 16 points would bound it beyond `far`, a constant series
        // that is a little farther.
        let (len, segments) = (24, 16);
        let edge = normal_breakpoints(256)[160];
        let mut near = vec![0.0f32; len];
        near.iter_mut().step_by(3).for_each(|v| *v = edge);
        let walks = random_walk(200, len, 5);
        let shifted = walks.as_flat().iter().map(|v| v + 10.0).collect();
        let mut data = Dataset::from_flat(len, shifted).unwrap();
        data.push(&vec![0.64 * edge; len]).unwrap();
        data.push(&near).unwrap();
        let index = Isax2Plus::build(&data, config_of(segments, 8)).unwrap();
        let query = vec![0.0f32; len];
        let got = index.search(&query, &SearchParams::exact(1)).unwrap();
        let want = exact_knn(&data, &query, 1);
        assert_eq!(want[0].index, 201);
        assert_eq!(got.neighbors[0].index, 201);
        assert_eq!(got.neighbors[0].distance.to_bits(), want[0].distance.to_bits());
    }

    #[test]
    fn kept_words_and_envelopes_agree_between_built_loaded_and_grown() {
        for (len, segments, max_bits) in SHAPES {
            let data = random_walk(500, len, 17);
            let config = config_of(segments, max_bits);
            let built = Isax2Plus::build(&data, config).unwrap();
            let head = Dataset::from_flat(len, data.as_flat()[..300 * len].to_vec()).unwrap();
            let mut grown = Isax2Plus::build(&head, config).unwrap();
            let tail: Vec<&[f32]> = (300..500).map(|i| data.series(i)).collect();
            for chunk in tail.chunks(37) {
                grown.insert_batch(chunk).unwrap();
            }
            let path = std::env::temp_dir().join(format!(
                "hydra-isax-words-{}-{len}-{segments}-{max_bits}.snap",
                std::process::id()
            ));
            built.save(&path).unwrap();
            let loaded = Isax2Plus::load(&path, &data, &config).unwrap();
            // A grown tree saves compacted: loaded back, its rows are the
            // fresh build's.
            grown.save(&path).unwrap();
            let regrown = Isax2Plus::load(&path, &data, &config).unwrap();
            std::fs::remove_file(&path).ok();

            assert_eq!(loaded.frame.words, built.frame.words);
            assert_eq!(regrown.frame.words, built.frame.words);
            for index in [&loaded, &grown, &regrown] {
                assert_eq!(index.envelopes, built.envelopes);
            }
            // The grown store is arrival-interleaved, so its rows are
            // compared series by series.
            let words_by_id = |index: &Isax2Plus| {
                let mut by_id = vec![Vec::new(); data.len()];
                for (_, row, id) in members_by_row(index) {
                    by_id[id] = index.frame.words.row(row).to_vec();
                }
                by_id
            };
            let want = words_by_id(&built);
            assert_eq!(words_by_id(&grown), want);
            for (id, word) in want.iter().enumerate() {
                let full = sax_word(data.series(id), &config.sax, built.frame.words.breakpoints());
                assert!(word
                    .iter()
                    .zip(&full.symbols)
                    .all(|(&kept, &s)| kept as u16 == s));
            }

            // The footprint counts the kept words and the envelopes, and
            // differs only by the inverse row mapping a grown collection
            // holds.
            assert!(
                built.memory_footprint()
                    >= (data.len() + 2 * (built.frame.nodes.len() - 1)) * built.word_len
            );
            assert_eq!(loaded.memory_footprint(), built.memory_footprint());
            assert_eq!(
                grown.memory_footprint(),
                built.memory_footprint() + data.len() * std::mem::size_of::<usize>()
            );
        }
    }

    /// Whether the δ-ε histogram is sampled: the probe the lazy contract
    /// is read through.
    fn sampled(index: &Isax2Plus) -> bool {
        index.frame.histogram.get().is_some()
    }

    #[test]
    fn the_histogram_is_sampled_once_on_first_delta_epsilon_use_as_a_fresh_build_would() {
        let data = random_walk(300, 32, 42);
        let config = config_of(8, 8);
        let fresh = Isax2Plus::build(&data, config).unwrap();
        assert!(!sampled(&fresh), "a build leaves the histogram unsampled");
        let head = Dataset::from_flat(32, data.as_flat()[..150 * 32].to_vec()).unwrap();
        let tail: Vec<&[f32]> = (150..300).map(|i| data.series(i)).collect();
        // Uneven chunks; `eager` samples after every batch, as ingest did
        // before the histogram was derived on use.
        let grow = |eager: bool| {
            let mut index = Isax2Plus::build(&head, config).unwrap();
            for chunk in [&tail[..1], &tail[1..38], &tail[38..]] {
                index.insert_batch(chunk).unwrap();
                assert!(!sampled(&index), "a batch resets the histogram");
                if eager {
                    index.histogram();
                }
            }
            index
        };
        let delta_eps = SearchParams::delta_epsilon(5, 0.5, 0.5);
        let queries = [0usize, 77, 200, 299].map(|qi| data.series(qi));

        // Exact, ε, ng and δ = 1 never read it; a save does, and a grown
        // index never sampled snapshots byte-identically to a fresh build.
        let unsampled = grow(false);
        for params in [
            SearchParams::exact(5),
            SearchParams::epsilon(5, 1.0),
            SearchParams::ng(5, 2),
            SearchParams::delta_epsilon(5, 1.0, 1.0),
        ] {
            for q in queries {
                unsampled.search(q, &params).unwrap();
            }
            unsampled.search_batch(&queries, &params);
        }
        assert!(!sampled(&unsampled));
        let dir = std::env::temp_dir();
        let fresh_path = dir.join(format!("hydra-isax-lazy-fresh-{}.snap", std::process::id()));
        let grown_path = dir.join(format!("hydra-isax-lazy-grown-{}.snap", std::process::id()));
        fresh.save(&fresh_path).unwrap();
        unsampled.save(&grown_path).unwrap();
        assert!(sampled(&unsampled));
        assert_eq!(std::fs::read(&fresh_path).unwrap(), std::fs::read(&grown_path).unwrap());
        std::fs::remove_file(&fresh_path).ok();
        std::fs::remove_file(&grown_path).ok();

        // The first δ-ε query samples it: answers and counters are the
        // eagerly sampled index's, answers and logical counters a fresh
        // build's.
        let (lazy, eager) = (grow(false), grow(true));
        let bits = |r: &SearchResult| -> Vec<(usize, u32)> {
            r.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect()
        };
        let logical = |r: &SearchResult| {
            let s = r.stats;
            let counts = [s.distance_computations, s.lower_bound_computations];
            (counts, s.leaves_visited, s.nodes_visited, s.series_scanned, s.delta_stop_triggered)
        };
        for q in queries {
            let got = lazy.search(q, &delta_eps).unwrap();
            assert!(sampled(&lazy));
            let want = eager.search(q, &delta_eps).unwrap();
            assert_eq!(got.stats, want.stats);
            assert_eq!(bits(&got), bits(&want));
            let reference = fresh.search(q, &delta_eps).unwrap();
            assert_eq!(bits(&got), bits(&reference));
            assert_eq!(logical(&got), logical(&reference));
        }
        assert_eq!(lazy.histogram(), fresh.histogram());
        assert_eq!(lazy.store_counters(), eager.store_counters());

        // Eight racing δ-ε queries on a freshly grown index: one sample,
        // eight identical answers.
        let raced = grow(false);
        let barrier = std::sync::Barrier::new(8);
        let answers: Vec<(Vec<hydra_core::Neighbor>, usize)> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let answer = raced.search(queries[1], &delta_eps).unwrap();
                        (answer.neighbors, std::ptr::from_ref(raced.histogram()) as usize)
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let want = fresh.search(queries[1], &delta_eps).unwrap().neighbors;
        assert!(answers.iter().all(|answer| *answer == (want.clone(), answers[0].1)));
    }

    #[test]
    fn isax_has_more_leaves_than_dstree_like_fill() {
        // Sanity property the paper relies on: iSAX2+ leaves are not
        // perfectly filled because regions are fixed by SAX words.
        let (_, index) = build_small(600, 64);
        assert!(index.avg_leaf_fill() < 1.0);
    }
}
