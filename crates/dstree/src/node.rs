//! The DSTree index proper.

use std::path::Path;

use hydra_core::search::SearchSpec;
use hydra_core::{
    check_query, knn_search, AnnIndex, Capabilities, Dataset, DistanceHistogram, HierarchicalIndex,
    QueryStats, Representation, Result, SearchParams, SearchResult,
};
use hydra_persist::{
    DataSource, Fingerprint, Leaf, LeafTree, LeafTreeConfig, PersistError, PersistentIndex,
    StoreBacking, TreeNode, Ungated,
};
use hydra_storage::{SeriesStore, StorageConfig};
use hydra_summarize::apca::{segment_stats, uniform_segments, Segment, SegmentStats};
use hydra_summarize::sax::SaxParams;

use crate::split::{enumerate_candidates, SplitKind, SplitRule};

/// Configuration of a [`DsTree`].
#[derive(Debug, Clone, Copy)]
pub struct DsTreeConfig {
    /// Maximum number of series a leaf may hold before splitting.
    pub leaf_capacity: usize,
    /// Initial number of segments of the root node.
    pub initial_segments: usize,
    /// Maximum number of segments a node may reach through vertical splits.
    pub max_segments: usize,
    /// Simulated storage configuration for the raw series.
    pub storage: StorageConfig,
    /// Number of pairwise-distance samples used to estimate the distance
    /// distribution for δ-ε-approximate search.
    pub histogram_samples: usize,
    /// Seed for the histogram sampling.
    pub seed: u64,
}

impl DsTreeConfig {
    /// What the leaf-ordered frame reads of the configuration.
    fn frame(&self) -> LeafTreeConfig {
        LeafTreeConfig {
            leaf_capacity: self.leaf_capacity,
            storage: self.storage,
            histogram_samples: self.histogram_samples,
            seed: self.seed,
            words: MEMBER_WORDS,
        }
    }
}

impl Default for DsTreeConfig {
    /// Defaults scaled from the paper's setup (leaf size 100K on 25-250 GB
    /// datasets) down to laptop-scale datasets.
    fn default() -> Self {
        Self {
            leaf_capacity: 128,
            initial_segments: 4,
            max_segments: 16,
            storage: StorageConfig::on_disk(),
            histogram_samples: 20_000,
            seed: 0xD57EE,
        }
    }
}

/// Per-segment synopsis: the range of segment means and standard deviations
/// over every series stored in the subtree.
#[derive(Debug, Clone, Copy)]
struct Synopsis {
    min_mean: f32,
    max_mean: f32,
    min_std: f32,
    max_std: f32,
}

impl Synopsis {
    fn empty() -> Self {
        Self {
            min_mean: f32::INFINITY,
            max_mean: f32::NEG_INFINITY,
            min_std: f32::INFINITY,
            max_std: f32::NEG_INFINITY,
        }
    }

    fn absorb(&mut self, mean: f32, std: f32) {
        self.min_mean = self.min_mean.min(mean);
        self.max_mean = self.max_mean.max(mean);
        self.min_std = self.min_std.min(std);
        self.max_std = self.max_std.max(std);
    }
}

#[derive(Debug)]
struct Node {
    segments: Vec<Segment>,
    /// Where [`DsTree::segments`] keeps each of `segments`, in the same
    /// order (see [`DsTree::index_segments`]).
    segment_ids: Vec<u32>,
    synopsis: Vec<Synopsis>,
    children: Vec<usize>,
    rule: Option<SplitRule>,
    /// The node's series (dataset positions) and their place in the
    /// collection; empty once the node has split.
    leaf: Leaf,
    size: usize,
}

impl Node {
    fn new_leaf(segments: Vec<Segment>) -> Self {
        let synopsis = vec![Synopsis::empty(); segments.len()];
        Self {
            segments,
            segment_ids: Vec::new(),
            synopsis,
            children: Vec::new(),
            rule: None,
            leaf: Leaf::default(),
            size: 0,
        }
    }
}

impl TreeNode for Node {
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

/// The DSTree index.
///
/// # Lower bounds
///
/// A node is bounded by its EAPCA synopsis:
/// per segment of its own segmentation, the query's segment mean and
/// standard deviation against the node's ranges. Segmentations differ from
/// node to node, but they are all refinements of one uniform segmentation
/// by halving, so few distinct segments exist — 24 among 5,262
/// node-segments at n = 32,000 (704 points), and never more than
/// `series_len` points per level of halving. The tree interns them,
/// [`HierarchicalIndex::prepare`] computes
/// the query's statistics once per distinct segment, and every node bound
/// reads them by id: the same function over the same slice as computing
/// them per node, so every bound is bit-identical.
///
/// Nodes, raw series, kept words and histogram live in a [`LeafTree`]
/// frame, as iSAX2+'s do. Each series' SAX word (16 segments at cardinality
/// 256, whatever the configuration) is kept in the frame's store-row-ordered
/// [`hydra_persist::WordColumn`], and [`HierarchicalIndex::refine_leaf`]
/// hands the store a *gate*: a member whose word bounds it strictly beyond
/// the live best-so-far is skipped before its raw series is read. It is one
/// the early-abandoning kernel would have refused, so answers, distance
/// bits and the leaves visited do not depend on the gate; only the series
/// read and compared do. The bound reads the word against the symbol cell
/// edges directly — no per-query table, which a one-leaf ng search could
/// not pay for. Words and segment ids are derived data, never persisted: a
/// load rebuilds both.
///
/// **How this differs from the paper's DSTree.** There every series of a
/// visited leaf is read and compared: EAPCA summarizes nodes, not series.
/// Gating members on a per-series summary is the step iSAX2+'s successors
/// take (and this repository's iSAX2+ too). The answers are the paper's —
/// in every mode, bit for bit — while fewer series are read: the pruning
/// ratio of fig 5 and the DSTree timings of figs 3–4 are this variant's,
/// not the original's. Checking a word costs about a fifth of reading and
/// comparing its series, so the gate pays on series whose words
/// discriminate — z-normalized ones such as the random walks, where it
/// rejects nine members in ten — and costs time where they do not: on the
/// vector datasets of figs 3–4, whose values are not z-normalized, DSTree
/// runs up to a quarter slower than it did without the gate.
pub struct DsTree {
    config: DsTreeConfig,
    frame: LeafTree<Node>,
    /// Every distinct segment of every node, sorted by `(start, end)`.
    segments: Vec<Segment>,
}

/// What a DSTree search computes of a query once
/// ([`HierarchicalIndex::prepare`]).
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The query's mean and standard deviation over every distinct segment
    /// of the tree, by segment id.
    stats: Vec<SegmentStats>,
    /// The query's PAA at the kept words' segmentation.
    paa: Vec<f32>,
}

/// The shape of the kept words: 16 segments at cardinality 256 (the SAX
/// default), whatever the tree's configuration.
const MEMBER_WORDS: SaxParams = SaxParams {
    segments: 16,
    max_bits: 8,
};

/// Where [`DsTree::split_leaf`] re-reads the series of an overflowing leaf:
/// the build-time dataset, or (during streaming ingest) the tree's own
/// series store.
enum FetchSource<'a> {
    /// The collection being built (members are dataset positions).
    Dataset(&'a Dataset),
    /// The tree's own collection (ingest path).
    Store,
}

impl DsTree {
    /// Builds a DSTree over `dataset`.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or the configuration is
    /// invalid.
    pub fn build(dataset: &Dataset, config: DsTreeConfig) -> Result<Self> {
        let mut frame = LeafTree::new(dataset, config.frame())?;
        let series_len = dataset.series_len();
        let initial = config.initial_segments.clamp(1, series_len);
        frame.nodes.push(Node::new_leaf(uniform_segments(series_len, initial)));
        let mut tree = Self {
            config,
            frame,
            segments: Vec::new(),
        };
        hydra_persist::while_fingerprinting(dataset, || {
            for id in 0..dataset.len() {
                tree.insert(dataset, id);
            }
        });
        tree.frame.lay_out(dataset)?;
        tree.index_segments();
        Ok(tree)
    }

    /// Interns the distinct segments of every node, sorted, and points each
    /// node's `segment_ids` at them. A function of the finished tree alone,
    /// so a built, a loaded and a grown tree of the same shape agree on
    /// every id: it runs wherever the shape settles — at the end of a
    /// build, a load and an ingest batch — never on a query path.
    fn index_segments(&mut self) {
        let key = |s: &Segment| (s.start, s.end);
        let mut distinct: Vec<Segment> = self
            .frame
            .nodes
            .iter()
            .flat_map(|n| n.segments.iter().copied())
            .collect();
        distinct.sort_unstable_by_key(key);
        distinct.dedup();
        distinct.shrink_to_fit();
        for node in &mut self.frame.nodes {
            node.segment_ids.clear();
            node.segment_ids.extend(node.segments.iter().map(|seg| {
                let id = distinct.binary_search_by_key(&key(seg), key);
                id.expect("every node segment was interned") as u32
            }));
        }
        self.segments = distinct;
    }

    /// Inserts one series (by dataset position) into the tree.
    fn insert(&mut self, dataset: &Dataset, id: usize) {
        self.insert_series(id, dataset.series(id), &FetchSource::Dataset(dataset));
    }

    /// Reads the raw series of dataset position `id` into `out`.
    fn fetch_series(&self, id: usize, src: &FetchSource<'_>, out: &mut Vec<f32>) {
        match src {
            FetchSource::Dataset(dataset) => {
                out.clear();
                out.extend_from_slice(dataset.series(id));
            }
            FetchSource::Store => self.frame.collection.read_by_id(id, out),
        }
    }

    /// Routes one series (its dataset position and raw values) to its leaf,
    /// updating synopses along the descent and splitting on overflow, and
    /// keeps its word as the next row of `words` — the single insertion
    /// path shared by [`DsTree::build`] and streaming ingest, which is what
    /// makes the two produce identical trees for the same insert sequence.
    fn insert_series(&mut self, id: usize, series: &[f32], src: &FetchSource<'_>) {
        self.frame.push_word(series);
        // Descend to the leaf, updating synopses along the way.
        let mut node_id = 0usize;
        loop {
            self.absorb(node_id, series);
            if self.frame.is_leaf(node_id) {
                break;
            }
            let rule = self.frame.nodes[node_id].rule.expect("internal node has a rule");
            let left = rule.goes_left(series, &self.frame.nodes[node_id].segments);
            let children = &self.frame.nodes[node_id].children;
            node_id = if left { children[0] } else { children[1] };
        }
        self.frame.nodes[node_id].leaf.members.push(id);
        if self.frame.nodes[node_id].leaf.members.len() > self.config.leaf_capacity {
            self.split_leaf(node_id, src);
        }
    }

    fn absorb(&mut self, node_id: usize, series: &[f32]) {
        let Node {
            segments,
            synopsis,
            size,
            ..
        } = &mut self.frame.nodes[node_id];
        *size += 1;
        for (seg, syn) in segments.iter().zip(synopsis.iter_mut()) {
            let st = segment_stats(series, *seg);
            syn.absorb(st.mean, st.std);
        }
    }

    /// Splits an overflowing leaf using the best-scoring candidate
    /// (horizontal or vertical).
    fn split_leaf(&mut self, node_id: usize, src: &FetchSource<'_>) {
        let members = self.frame.nodes[node_id].leaf.members.clone();
        let owned: Vec<Vec<f32>> = members
            .iter()
            .map(|&id| {
                let mut buf = Vec::new();
                self.fetch_series(id, src, &mut buf);
                buf
            })
            .collect();
        let series: Vec<&[f32]> = owned.iter().map(|v| v.as_slice()).collect();
        let candidates = enumerate_candidates(
            &series,
            &self.frame.nodes[node_id].segments,
            self.config.max_segments,
        );
        let Some(best) = candidates
            .into_iter()
            .max_by(|a, b| a.score.total_cmp(&b.score))
        else {
            // All series are identical under every statistic; keep the
            // oversized leaf (splitting cannot help).
            return;
        };

        let child_segments = best.segments.clone();
        let mut left = Node::new_leaf(child_segments.clone());
        let mut right = Node::new_leaf(child_segments.clone());
        for (&id, s) in members.iter().zip(series.iter()) {
            let target = if best.rule.goes_left(s, &child_segments) {
                &mut left
            } else {
                &mut right
            };
            target.leaf.members.push(id);
            target.size += 1;
            for (seg, syn) in child_segments.iter().zip(target.synopsis.iter_mut()) {
                let st = segment_stats(s, *seg);
                syn.absorb(st.mean, st.std);
            }
        }
        // Degenerate partitions can happen when the threshold equals the
        // extreme value; fall back to a balanced split on the same ordering.
        if left.leaf.members.is_empty() || right.leaf.members.is_empty() {
            left.leaf.members.clear();
            right.leaf.members.clear();
            left.synopsis = vec![Synopsis::empty(); child_segments.len()];
            right.synopsis = vec![Synopsis::empty(); child_segments.len()];
            left.size = 0;
            right.size = 0;
            for (i, (&id, s)) in members.iter().zip(series.iter()).enumerate() {
                let target = if i % 2 == 0 { &mut left } else { &mut right };
                target.leaf.members.push(id);
                target.size += 1;
                for (seg, syn) in child_segments.iter().zip(target.synopsis.iter_mut()) {
                    let st = segment_stats(s, *seg);
                    syn.absorb(st.mean, st.std);
                }
            }
        }

        let left_id = self.frame.nodes.len();
        self.frame.nodes.push(left);
        let right_id = self.frame.nodes.len();
        self.frame.nodes.push(right);
        let parent = &mut self.frame.nodes[node_id];
        parent.leaf.members.clear();
        parent.children = vec![left_id, right_id];
        parent.rule = Some(best.rule);
        parent.segments = child_segments;
        // The parent synopsis must be recomputed for the refined
        // segmentation: take the union of the children's synopses.
        let mut synopsis = vec![Synopsis::empty(); self.frame.nodes[node_id].segments.len()];
        for &child in &[left_id, right_id] {
            for (i, syn) in self.frame.nodes[child].synopsis.iter().enumerate() {
                synopsis[i].min_mean = synopsis[i].min_mean.min(syn.min_mean);
                synopsis[i].max_mean = synopsis[i].max_mean.max(syn.max_mean);
                synopsis[i].min_std = synopsis[i].min_std.min(syn.min_std);
                synopsis[i].max_std = synopsis[i].max_std.max(syn.max_std);
            }
        }
        self.frame.nodes[node_id].synopsis = synopsis;
    }

    /// Number of leaves in the tree.
    pub fn num_leaves(&self) -> usize {
        self.frame.num_leaves()
    }

    /// Average leaf fill factor (stored series / leaf capacity).
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

    /// The configuration the tree was built with.
    pub fn config(&self) -> &DsTreeConfig {
        &self.config
    }

    /// This tree with every member of a visited leaf read and compared — no
    /// gate: the reference its gated search is held to.
    pub fn ungated(&self) -> Ungated<'_, Self> {
        self.frame.ungated(self)
    }

    /// Lower bound between the query `prepared` was computed for and node
    /// `node_id` using the EAPCA synopsis: for every segment, the query's
    /// segment mean/std are clamped into the node's ranges, and the
    /// per-segment contribution is `len · ((μ_q - μ̂)² + (σ_q - σ̂)²)`.
    fn node_min_dist(&self, prepared: &PreparedQuery, node_id: usize) -> f32 {
        let node = &self.frame.nodes[node_id];
        if node.size == 0 {
            return f32::INFINITY;
        }
        let mut acc = 0.0f32;
        for ((seg, &id), syn) in node
            .segments
            .iter()
            .zip(&node.segment_ids)
            .zip(&node.synopsis)
        {
            let st = prepared.stats[id as usize];
            let mean_gap = if st.mean < syn.min_mean {
                syn.min_mean - st.mean
            } else if st.mean > syn.max_mean {
                st.mean - syn.max_mean
            } else {
                0.0
            };
            let std_gap = if st.std < syn.min_std {
                syn.min_std - st.std
            } else if st.std > syn.max_std {
                st.std - syn.max_std
            } else {
                0.0
            };
            acc += seg.len() as f32 * (mean_gap * mean_gap + std_gap * std_gap);
        }
        acc.sqrt()
    }
}

impl PersistentIndex for DsTree {
    type Config = DsTreeConfig;
    const KIND: &'static str = "dstree";

    fn hash_config(config: &DsTreeConfig, f: &mut Fingerprint) {
        f.push_usize(config.leaf_capacity);
        f.push_usize(config.initial_segments);
        f.push_usize(config.max_segments);
        f.push_usize(config.histogram_samples);
        f.push_u64(config.seed);
    }

    /// Snapshots the tree (per-node segmentation, EAPCA synopsis, split
    /// rule, leaf extent and size) in the frame's layout
    /// ([`LeafTree::save`]); the raw series are re-attached from the
    /// dataset at load time (resident or file-backed).
    fn save(&self, path: &Path) -> hydra_persist::Result<()> {
        self.frame.save::<Self>(path, &self.config, |node, sec, (start, len)| {
            sec.put_usize(node.segments.len());
            for seg in &node.segments {
                sec.put_usize(seg.start);
                sec.put_usize(seg.end);
            }
            for syn in &node.synopsis {
                sec.put_f32(syn.min_mean);
                sec.put_f32(syn.max_mean);
                sec.put_f32(syn.min_std);
                sec.put_f32(syn.max_std);
            }
            sec.put_usizes(&node.children);
            match node.rule {
                None => sec.put_bool(false),
                Some(rule) => {
                    sec.put_bool(true);
                    sec.put_usize(rule.segment);
                    sec.put_u8(match rule.kind {
                        SplitKind::Mean => 0,
                        SplitKind::Std => 1,
                    });
                    sec.put_f32(rule.threshold);
                }
            }
            sec.put_usize(start);
            sec.put_usize(len);
            sec.put_usize(node.size);
        })
    }

    fn load_from(
        path: &Path,
        source: DataSource<'_>,
        config: &DsTreeConfig,
        backing: StoreBacking<'_>,
    ) -> hydra_persist::Result<Self> {
        let shape = config.frame();
        let frame = LeafTree::load::<Self>(path, source, config, backing, shape, |sec, slot| {
            let seg_count = sec.get_usize()?;
            let mut segments = Vec::with_capacity(seg_count);
            for _ in 0..seg_count {
                let start = sec.get_usize()?;
                let end = sec.get_usize()?;
                if start >= end || end > slot.series_len {
                    return Err(PersistError::Corrupt(format!(
                        "segment [{start}, {end}) outside the series domain"
                    )));
                }
                segments.push(Segment { start, end });
            }
            let mut synopsis = Vec::with_capacity(seg_count);
            for _ in 0..seg_count {
                synopsis.push(Synopsis {
                    min_mean: sec.get_f32()?,
                    max_mean: sec.get_f32()?,
                    min_std: sec.get_f32()?,
                    max_std: sec.get_f32()?,
                });
            }
            let children = sec.get_usizes()?;
            let rule = if sec.get_bool()? {
                let segment = sec.get_usize()?;
                let kind = match sec.get_u8()? {
                    0 => SplitKind::Mean,
                    1 => SplitKind::Std,
                    tag => {
                        return Err(PersistError::Corrupt(format!(
                            "invalid split-kind tag {tag}"
                        )))
                    }
                };
                if segment >= seg_count {
                    return Err(PersistError::Corrupt(
                        "split rule references a missing segment".into(),
                    ));
                }
                Some(SplitRule {
                    segment,
                    kind,
                    threshold: sec.get_f32()?,
                })
            } else {
                None
            };
            Ok(Node {
                segments,
                segment_ids: Vec::new(),
                synopsis,
                children,
                rule,
                leaf: slot.leaf(sec)?,
                size: sec.get_usize()?,
            })
        })?;
        let mut tree = Self {
            config: *config,
            frame,
            segments: Vec::new(),
        };
        tree.index_segments();
        Ok(tree)
    }
}

impl HierarchicalIndex for DsTree {
    /// The query's statistics over every distinct segment, which every node
    /// bound reads, and its PAA, which the member gate reads.
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
        PreparedQuery {
            stats: self
                .segments
                .iter()
                .map(|&seg| segment_stats(query, seg))
                .collect(),
            paa: self.frame.paa(query),
        }
    }

    fn min_dist(&self, _query: &[f32], prepared: &PreparedQuery, node: usize) -> f32 {
        self.node_min_dist(prepared, node)
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
        // EAPCA summarizes nodes, not series: each member is gated on its
        // kept word instead.
        self.frame.refine_leaf(
            node,
            query,
            best_so_far,
            stats,
            // Strictly beyond the bound is what the early-abandoning kernel
            // refuses; a member at the bound is still compared.
            |row, bound| self.frame.words.bound_squared(&prepared.paa, row) <= bound * bound,
            accept,
        )
    }
}

impl AnnIndex for DsTree {
    fn name(&self) -> &'static str {
        "DSTree"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            exact: true,
            ng_approximate: true,
            epsilon_approximate: true,
            delta_epsilon_approximate: true,
            disk_resident: true,
            streaming_insert: true,
            representation: Representation::Eapca,
        }
    }

    fn num_series(&self) -> usize {
        self.frame.collection.len()
    }

    fn series_len(&self) -> usize {
        self.frame.collection.series_len()
    }

    fn memory_footprint(&self) -> usize {
        // The index structure itself: nodes with segmentation, segment ids
        // and synopsis, the distinct segments, and the kept word of every
        // series (16 bytes each, what the member gate reads). Raw series
        // live on (simulated) disk and are not counted, matching how the
        // paper reports DSTree's small footprint.
        self.frame.nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<Node>()
                    + n.segments.len()
                        * (std::mem::size_of::<Segment>() + std::mem::size_of::<u32>())
                    + n.synopsis.len() * std::mem::size_of::<Synopsis>()
            })
            .sum::<usize>()
            + self.segments.len() * std::mem::size_of::<Segment>()
            + self.frame.collection.mapping_bytes()
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
    /// series is appended to the store (arrival order), routed down the
    /// tree — updating every synopsis on its path — and split on overflow
    /// exactly as [`DsTree::build`] would have done, so the grown tree's
    /// topology, synopses and answers are identical to a fresh build over
    /// the full collection. The batch resets the δ-ε histogram; the next
    /// δ-ε query or save samples it over the grown collection.
    fn insert_batch(&mut self, batch: &[&[f32]]) -> Result<()> {
        if !self.frame.begin_ingest(batch)? {
            return Ok(());
        }
        for series in batch {
            let id = self.frame.collection.append(series)?;
            self.insert_series(id, series, &FetchSource::Store);
        }
        self.index_segments();
        self.frame.end_ingest();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_core::{euclidean, euclidean_early_abandon};
    use hydra_data::{exact_knn, random_walk};
    use hydra_persist::WordColumn;
    use hydra_summarize::sax::sax_word;

    fn small_config() -> DsTreeConfig {
        DsTreeConfig {
            leaf_capacity: 16,
            initial_segments: 4,
            max_segments: 8,
            storage: StorageConfig::in_memory(),
            histogram_samples: 2_000,
            seed: 1,
        }
    }

    fn build_small(n: usize, len: usize) -> (Dataset, DsTree) {
        let data = random_walk(n, len, 42);
        let tree = DsTree::build(&data, small_config()).unwrap();
        (data, tree)
    }

    #[test]
    fn build_rejects_empty_dataset() {
        let empty = Dataset::new(8).unwrap();
        assert!(DsTree::build(&empty, DsTreeConfig::default()).is_err());
        let one = random_walk(1, 8, 0);
        let bad = DsTreeConfig {
            leaf_capacity: 0,
            ..DsTreeConfig::default()
        };
        assert!(DsTree::build(&one, bad).is_err());
    }

    #[test]
    fn tree_partitions_all_series_into_leaves() {
        let (data, tree) = build_small(500, 64);
        let total: usize = (0..tree.frame.nodes.len())
            .filter(|&i| tree.is_leaf(i))
            .map(|i| tree.leaf_size(i))
            .sum();
        assert_eq!(total, data.len());
        assert!(tree.num_leaves() > 1, "500 series must split a 16-capacity leaf");
        assert!(tree.avg_leaf_fill() > 0.0);
        assert_eq!(tree.num_series(), 500);
        assert_eq!(tree.series_len(), 64);
        assert!(tree.memory_footprint() > 0);
        assert_eq!(tree.name(), "DSTree");
        assert!(tree.capabilities().exact);
        assert!(tree.capabilities().disk_resident);
    }

    #[test]
    fn exact_search_matches_brute_force() {
        let (data, tree) = build_small(400, 32);
        for qi in [0usize, 13, 77] {
            let query = data.series(qi);
            let res = tree.search(query, &SearchParams::exact(10)).unwrap();
            let gt = exact_knn(&data, query, 10);
            assert_eq!(res.neighbors.len(), 10);
            for (a, b) in res.neighbors.iter().zip(gt.iter()) {
                assert!(
                    (a.distance - b.distance).abs() < 1e-4,
                    "exact search must match brute force"
                );
            }
        }
    }

    #[test]
    fn epsilon_guarantee_holds() {
        let (data, tree) = build_small(400, 32);
        let queries = random_walk(10, 32, 7);
        for eps in [0.5f32, 1.0, 3.0] {
            for q in queries.iter() {
                let res = tree.search(q, &SearchParams::epsilon(5, eps)).unwrap();
                let gt = exact_knn(&data, q, 5);
                let bound = (1.0 + eps) * gt[4].distance + 1e-4;
                for n in &res.neighbors {
                    assert!(n.distance <= bound, "eps={eps}");
                }
            }
        }
    }

    #[test]
    fn ng_search_visits_bounded_leaves_and_is_fast_but_approximate() {
        let (data, tree) = build_small(800, 32);
        let query = random_walk(1, 32, 99);
        let q = query.series(0);
        let ng = tree.search(q, &SearchParams::ng(5, 2)).unwrap();
        assert!(ng.stats.leaves_visited <= 2);
        let exact = tree.search(q, &SearchParams::exact(5)).unwrap();
        assert!(ng.stats.distance_computations <= exact.stats.distance_computations);
        // ng answers are never better than exact ones.
        assert!(ng.kth_distance() + 1e-6 >= exact.kth_distance());
        let _ = data;
    }

    #[test]
    fn delta_epsilon_search_returns_valid_answers() {
        let (data, tree) = build_small(400, 32);
        let q = data.series(3);
        let res = tree
            .search(q, &SearchParams::delta_epsilon(5, 0.95, 1.0))
            .unwrap();
        assert_eq!(res.neighbors.len(), 5);
        // Distances are sorted and finite.
        for w in res.neighbors.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn search_rejects_wrong_dimension() {
        let (_, tree) = build_small(100, 32);
        assert!(tree.search(&[0.0; 8], &SearchParams::exact(1)).is_err());
    }

    #[test]
    fn snapshot_roundtrip_answers_identically_and_checks_fingerprint() {
        let (data, tree) = build_small(300, 32);
        let path = std::env::temp_dir().join(format!(
            "hydra-dstree-roundtrip-{}.snap",
            std::process::id()
        ));
        tree.save(&path).unwrap();
        let loaded = DsTree::load(&path, &data, tree.config()).unwrap();
        assert_eq!(loaded.num_leaves(), tree.num_leaves());
        for qi in [0usize, 77, 299] {
            let q = data.series(qi);
            for params in [
                SearchParams::exact(5),
                SearchParams::ng(5, 2),
                SearchParams::delta_epsilon(5, 0.9, 1.0),
            ] {
                let a = tree.search(q, &params).unwrap();
                let b = loaded.search(q, &params).unwrap();
                assert_eq!(a.neighbors.len(), b.neighbors.len());
                for (x, y) in a.neighbors.iter().zip(b.neighbors.iter()) {
                    assert_eq!(x.index, y.index);
                    assert_eq!(x.distance.to_bits(), y.distance.to_bits());
                }
                assert_eq!(a.stats, b.stats, "loaded tree must pay identical costs");
            }
        }
        let other = DsTreeConfig {
            seed: tree.config().seed ^ 1,
            ..*tree.config()
        };
        assert!(matches!(
            DsTree::load(&path, &data, &other),
            Err(hydra_persist::PersistError::FingerprintMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_resident_load_is_the_build_at_every_worker_count() {
        let (data, built) = build_small(300, 32);
        let path = std::env::temp_dir().join(format!(
            "hydra-dstree-parallel-load-{}.snap",
            std::process::id()
        ));
        built.save(&path).unwrap();
        let chunk: Vec<&[f32]> = (0..16).map(|i| data.series(i)).collect();
        let mut grown_build = DsTree::build(&data, small_config()).unwrap();
        grown_build.insert_batch(&chunk).unwrap();
        let queries = [0usize, 77, 299].map(|qi| data.series(qi));
        let modes = [
            SearchParams::exact(5),
            SearchParams::epsilon(5, 1.0),
            SearchParams::ng(5, 2),
            SearchParams::delta_epsilon(5, 0.9, 1.0),
        ];
        let answers = |tree: &DsTree| -> Vec<(Vec<(usize, u32)>, QueryStats)> {
            let mut all = Vec::new();
            for params in &modes {
                for q in queries {
                    let r = tree.search(q, params).unwrap();
                    let ids = r.neighbors.iter().map(|n| (n.index, n.distance.to_bits()));
                    all.push((ids.collect(), r.stats));
                }
            }
            all
        };
        let want = answers(&DsTree::build(&data, small_config()).unwrap());
        for workers in [1usize, 2, 4] {
            let mut loaded = hydra_core::workers::with_batch_workers(workers, || {
                DsTree::load(&path, &data, built.config()).unwrap()
            });
            let (store, built_store) = (loaded.store(), built.store());
            let rows = store.as_flat().unwrap();
            assert_eq!(rows, built_store.as_flat().unwrap(), "{workers} workers");
            assert_eq!(store.resident_capacity(), built_store.resident_capacity());
            assert_eq!(store.resident_capacity(), 512, "the append loop's doubling");
            assert_eq!(loaded.frame.words, built.frame.words, "{workers} workers");
            assert_eq!(answers(&loaded), want, "{workers} workers");
            // The first batch after a reload fits the capacity it kept.
            loaded.insert_batch(&chunk).unwrap();
            assert_eq!(loaded.store().resident_capacity(), 512);
            assert_eq!(loaded.frame.words, grown_build.frame.words);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_dataset_changed_after_its_first_fingerprint_no_longer_loads_a_snapshot() {
        let (data, tree) = build_small(120, 16);
        let path = std::env::temp_dir().join(format!(
            "hydra-dstree-changed-dataset-{}.snap",
            std::process::id()
        ));
        tree.save(&path).unwrap();
        assert!(DsTree::load(&path, &data, tree.config()).is_ok());
        let mut pushed = data.clone();
        pushed.push(data.series(0)).unwrap();
        let mut normalized = data.clone();
        normalized.znormalize_all();
        assert_ne!(normalized, data, "random walks are not z-normalized");
        for changed in [pushed, normalized] {
            assert!(matches!(
                DsTree::load(&path, &changed, tree.config()),
                Err(hydra_persist::PersistError::FingerprintMismatch { .. })
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ingest_matches_fresh_build_and_compacts_snapshots() {
        let data = random_walk(300, 32, 42);
        let config = DsTreeConfig {
            leaf_capacity: 16,
            initial_segments: 4,
            max_segments: 8,
            storage: StorageConfig::in_memory(),
            histogram_samples: 2_000,
            seed: 1,
        };
        let fresh = DsTree::build(&data, config).unwrap();

        let head = Dataset::from_flat(32, data.as_flat()[..180 * 32].to_vec()).unwrap();
        let tail: Vec<&[f32]> = (180..300).map(|i| data.series(i)).collect();

        // Grow a freshly built tree and one round-tripped through a
        // snapshot (whose leaves must be re-hydrated from their extents).
        let built = DsTree::build(&head, config).unwrap();
        let path = std::env::temp_dir().join(format!(
            "hydra-dstree-ingest-{}.snap",
            std::process::id()
        ));
        built.save(&path).unwrap();
        let loaded = DsTree::load(&path, &head, &config).unwrap();
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
                dir.join(format!("hydra-dstree-fresh-{}.snap", std::process::id()));
            let grown_path =
                dir.join(format!("hydra-dstree-grown-{}.snap", std::process::id()));
            fresh.save(&fresh_path).unwrap();
            grown.save(&grown_path).unwrap();
            assert_eq!(
                std::fs::read(&fresh_path).unwrap(),
                std::fs::read(&grown_path).unwrap(),
                "a grown DSTree must snapshot byte-identically to a fresh build"
            );
            std::fs::remove_file(&fresh_path).ok();
            std::fs::remove_file(&grown_path).ok();

            // Dimension mismatches reject the whole batch without growing.
            let before = grown.num_series();
            assert!(grown.insert_batch(&[&[0.0f32; 3]]).is_err());
            assert_eq!(grown.num_series(), before);
        }
    }

    /// Every leaf member as `(node, store row, dataset id)`, whatever state
    /// the collection is in.
    fn members_by_row(tree: &DsTree) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for node in (0..tree.frame.nodes.len()).filter(|&n| tree.is_leaf(n)) {
            let leaf = &tree.frame.nodes[node].leaf;
            let mut runs = Vec::new();
            tree.frame.collection.leaf_ranges(leaf, &mut runs);
            let mut rows = runs.iter().flat_map(|&(start, count)| start..start + count);
            tree.frame.collection
                .visit_leaf(leaf, &mut QueryStats::new(), &mut |id, _| {
                    out.push((node, rows.next().unwrap(), id));
                });
        }
        tree.store().reset_io();
        out
    }

    #[test]
    fn a_member_whose_bound_equals_the_best_so_far_is_still_compared() {
        // One and two points per word segment, so a piecewise-constant
        // series summarizes without rounding. The query is zero; the series
        // sits on a positive breakpoint over its first segment (the lower
        // edge of its cell, which is therefore exactly as far from the
        // query as the series) and on zero elsewhere: bound and distance
        // are one number.
        for len in [8usize, 32] {
            let segments = MEMBER_WORDS.segments.min(len);
            let breakpoints = WordColumn::new(len, MEMBER_WORDS).breakpoints().to_vec();
            for edge in [130usize, 200, 254] {
                let mut series = vec![0.0f32; len];
                series[..len / segments].fill(breakpoints[edge]);
                let mut data = random_walk(40, len, 3);
                data.push(&series).unwrap();
                let tree = DsTree::build(&data, small_config()).unwrap();
                let &(node, row, _) = members_by_row(&tree)
                    .iter()
                    .find(|&&(_, _, id)| id == 40)
                    .unwrap();
                let query = vec![0.0f32; len];
                let prepared = tree.prepare(&query);
                let bound = tree.frame.words.bound_squared(&prepared.paa, row).sqrt();
                assert_eq!(bound.to_bits(), euclidean(&query, &series).to_bits());

                // Around the tie the gate lets through exactly what the
                // kernel accepts; at it (one point per segment: the square
                // root is exact) that is the series itself.
                for best_so_far in [bound.next_down(), bound, bound.next_up()] {
                    let mut accepted = Vec::new();
                    let mut stats = QueryStats::new();
                    tree.refine_leaf(
                        node,
                        &query,
                        &prepared,
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

    /// Node `node`'s bound with the query's statistics computed per node
    /// segment, as every bound was before the memo.
    fn per_node_min_dist(tree: &DsTree, query: &[f32], node: usize) -> f32 {
        let node = &tree.frame.nodes[node];
        if node.size == 0 {
            return f32::INFINITY;
        }
        let gap = |x: f32, lo: f32, hi: f32| {
            if x < lo {
                lo - x
            } else if x > hi {
                x - hi
            } else {
                0.0
            }
        };
        let mut acc = 0.0f32;
        for (seg, syn) in node.segments.iter().zip(&node.synopsis) {
            let st = segment_stats(query, *seg);
            let mean_gap = gap(st.mean, syn.min_mean, syn.max_mean);
            let std_gap = gap(st.std, syn.min_std, syn.max_std);
            acc += seg.len() as f32 * (mean_gap * mean_gap + std_gap * std_gap);
        }
        acc.sqrt()
    }

    #[test]
    fn kept_words_and_segment_ids_agree_between_built_loaded_and_grown() {
        assert_eq!(MEMBER_WORDS, SaxParams::default());
        // The last series is shorter than a word: the word is clamped.
        for len in [64usize, 6] {
            let data = random_walk(500, len, 17);
            let config = small_config();
            let built = DsTree::build(&data, config).unwrap();
            let head = Dataset::from_flat(len, data.as_flat()[..300 * len].to_vec()).unwrap();
            let mut grown = DsTree::build(&head, config).unwrap();
            let tail: Vec<&[f32]> = (300..500).map(|i| data.series(i)).collect();
            for chunk in tail.chunks(37) {
                grown.insert_batch(chunk).unwrap();
            }
            let path = std::env::temp_dir().join(format!(
                "hydra-dstree-words-{}-{len}.snap",
                std::process::id()
            ));
            built.save(&path).unwrap();
            let loaded = DsTree::load(&path, &data, &config).unwrap();
            // A grown tree saves compacted: loaded back, its rows are the
            // fresh build's.
            grown.save(&path).unwrap();
            let regrown = DsTree::load(&path, &data, &config).unwrap();
            std::fs::remove_file(&path).ok();

            assert_eq!(loaded.frame.words, built.frame.words);
            assert_eq!(regrown.frame.words, built.frame.words);
            let ids = |tree: &DsTree| -> Vec<Vec<u32>> {
                tree.frame.nodes.iter().map(|n| n.segment_ids.clone()).collect()
            };
            for tree in [&loaded, &grown, &regrown] {
                assert_eq!(tree.segments, built.segments);
                assert_eq!(ids(tree), ids(&built));
            }
            // The grown store is arrival-interleaved, so its rows are
            // compared series by series.
            let words_by_id = |tree: &DsTree| {
                let mut by_id = vec![Vec::new(); data.len()];
                for (_, row, id) in members_by_row(tree) {
                    by_id[id] = tree.frame.words.row(row).to_vec();
                }
                by_id
            };
            let want = words_by_id(&built);
            assert_eq!(words_by_id(&grown), want);
            let breakpoints = built.frame.words.breakpoints();
            for (id, word) in want.iter().enumerate() {
                let full = sax_word(data.series(id), &MEMBER_WORDS, breakpoints);
                assert_eq!(word.len(), MEMBER_WORDS.segments.min(len));
                assert!(word
                    .iter()
                    .zip(&full.symbols)
                    .all(|(&kept, &s)| kept as u16 == s));
            }

            // Every node bound read from the per-query memo is the bound
            // computed per node, bit for bit.
            let queries = random_walk(6, len, 99);
            for tree in [&built, &loaded, &grown, &regrown] {
                for q in queries.iter().chain([data.series(3)]) {
                    let prepared = tree.prepare(q);
                    assert_eq!(prepared.stats.len(), tree.segments.len());
                    for node in 0..tree.frame.nodes.len() {
                        assert_eq!(
                            tree.min_dist(q, &prepared, node).to_bits(),
                            per_node_min_dist(tree, q, node).to_bits(),
                            "len {len} node {node}"
                        );
                    }
                }
            }

            // The footprint counts the kept words, and differs only by the
            // inverse row mapping a grown collection holds.
            assert!(built.memory_footprint() >= data.len() * built.frame.words.word_len());
            assert_eq!(loaded.memory_footprint(), built.memory_footprint());
            assert_eq!(
                grown.memory_footprint(),
                built.memory_footprint() + data.len() * std::mem::size_of::<usize>()
            );
        }
    }

    /// Whether the δ-ε histogram is sampled: the probe the lazy contract
    /// is read through.
    fn sampled(tree: &DsTree) -> bool {
        tree.frame.histogram.get().is_some()
    }

    #[test]
    fn the_histogram_is_sampled_once_on_first_delta_epsilon_use_as_a_fresh_build_would() {
        let data = random_walk(300, 32, 42);
        let config = small_config();
        let fresh = DsTree::build(&data, config).unwrap();
        assert!(!sampled(&fresh), "a build leaves the histogram unsampled");
        let head = Dataset::from_flat(32, data.as_flat()[..150 * 32].to_vec()).unwrap();
        let tail: Vec<&[f32]> = (150..300).map(|i| data.series(i)).collect();
        // Uneven chunks; `eager` samples after every batch, as ingest did
        // before the histogram was derived on use.
        let grow = |eager: bool| {
            let mut tree = DsTree::build(&head, config).unwrap();
            for chunk in [&tail[..1], &tail[1..38], &tail[38..]] {
                tree.insert_batch(chunk).unwrap();
                assert!(!sampled(&tree), "a batch resets the histogram");
                if eager {
                    tree.histogram();
                }
            }
            tree
        };
        let delta_eps = SearchParams::delta_epsilon(5, 0.5, 0.5);
        let queries = [0usize, 77, 200, 299].map(|qi| data.series(qi));

        // Exact, ε, ng and δ = 1 never read it; a save does, and a grown
        // tree never sampled snapshots byte-identically to a fresh build.
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
        let fresh_path = dir.join(format!("hydra-dstree-lazy-fresh-{}.snap", std::process::id()));
        let grown_path = dir.join(format!("hydra-dstree-lazy-grown-{}.snap", std::process::id()));
        fresh.save(&fresh_path).unwrap();
        unsampled.save(&grown_path).unwrap();
        assert!(sampled(&unsampled));
        assert_eq!(std::fs::read(&fresh_path).unwrap(), std::fs::read(&grown_path).unwrap());
        std::fs::remove_file(&fresh_path).ok();
        std::fs::remove_file(&grown_path).ok();

        // The first δ-ε query samples it: answers and counters are the
        // eagerly sampled tree's, answers and logical counters a fresh
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

        // Eight racing δ-ε queries on a freshly grown tree: one sample,
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
    fn exact_search_accesses_less_data_than_full_scan_on_clustered_data() {
        // Random walks are highly correlated, which is where DSTree pruning
        // shines; verify pruning actually happens.
        let (data, tree) = build_small(1000, 64);
        let q = data.series(11);
        let res = tree.search(q, &SearchParams::exact(1)).unwrap();
        assert!(
            (res.stats.series_scanned as usize) < data.len(),
            "exact search should prune part of the dataset"
        );
        assert_eq!(res.neighbors[0].index, 11);
    }
}
