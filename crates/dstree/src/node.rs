//! The DSTree index proper.

use std::path::Path;

use hydra_core::{
    knn_search, AnnIndex, Capabilities, Dataset, DistanceHistogram, Error, HierarchicalIndex,
    QueryStats, Representation, Result, SearchParams, SearchResult,
};
use hydra_core::search::SearchSpec;
use hydra_persist::{
    codec, Collection, DataSource, Fingerprint, Leaf, PersistError, PersistentIndex, Section,
    SnapshotReader, SnapshotWriter, StoreBacking,
};
use hydra_storage::{SeriesStore, StorageConfig};
use hydra_summarize::apca::{segment_stats, uniform_segments, Segment};

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
            synopsis,
            children: Vec::new(),
            rule: None,
            leaf: Leaf::default(),
            size: 0,
        }
    }

    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }
}

/// The DSTree index.
pub struct DsTree {
    config: DsTreeConfig,
    series_len: usize,
    nodes: Vec<Node>,
    /// Leaf-ordered raw series (the simulated on-disk layout).
    collection: Collection,
    histogram: DistanceHistogram,
}

/// Where [`DsTree::split_leaf`] re-reads the series of an overflowing leaf:
/// the build-time dataset, or (during streaming ingest) the tree's own
/// series store.
enum FetchSource<'a> {
    /// The collection being built (members are dataset positions).
    Dataset(&'a Dataset),
    /// The tree's own collection (ingest path).
    Store,
}

/// The leaves of the tree, in node order.
fn leaves_mut(nodes: &mut [Node]) -> impl Iterator<Item = &mut Leaf> {
    nodes.iter_mut().filter(|n| n.is_leaf()).map(|n| &mut n.leaf)
}

impl DsTree {
    /// Builds a DSTree over `dataset`.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or the configuration is
    /// invalid.
    pub fn build(dataset: &Dataset, config: DsTreeConfig) -> Result<Self> {
        if dataset.is_empty() {
            return Err(Error::EmptyDataset);
        }
        if config.leaf_capacity == 0 {
            return Err(Error::InvalidParameter("leaf capacity must be positive".into()));
        }
        let series_len = dataset.series_len();
        let initial = config.initial_segments.clamp(1, series_len);
        let mut tree = Self {
            config,
            series_len,
            nodes: vec![Node::new_leaf(uniform_segments(series_len, initial))],
            collection: Collection::leaf_order(series_len, config.storage)?,
            histogram: DistanceHistogram::from_dataset(
                dataset,
                config.histogram_samples,
                256,
                config.seed,
            ),
        };
        for id in 0..dataset.len() {
            tree.insert(dataset, id);
        }
        tree.collection.materialize(dataset, leaves_mut(&mut tree.nodes))?;
        Ok(tree)
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
            FetchSource::Store => self.collection.read_by_id(id, out),
        }
    }

    /// Routes one series (its dataset position and raw values) to its leaf,
    /// updating synopses along the descent and splitting on overflow — the
    /// single insertion path shared by [`DsTree::build`] and streaming
    /// ingest, which is what makes the two produce identical trees for the
    /// same insert sequence.
    fn insert_series(&mut self, id: usize, series: &[f32], src: &FetchSource<'_>) {
        // Descend to the leaf, updating synopses along the way.
        let mut node_id = 0usize;
        loop {
            self.absorb(node_id, series);
            if self.nodes[node_id].is_leaf() {
                break;
            }
            let rule = self.nodes[node_id].rule.expect("internal node has a rule");
            let left = rule.goes_left(series, &self.nodes[node_id].segments);
            let children = &self.nodes[node_id].children;
            node_id = if left { children[0] } else { children[1] };
        }
        self.nodes[node_id].leaf.members.push(id);
        if self.nodes[node_id].leaf.members.len() > self.config.leaf_capacity {
            self.split_leaf(node_id, src);
        }
    }

    fn absorb(&mut self, node_id: usize, series: &[f32]) {
        let Node {
            segments,
            synopsis,
            size,
            ..
        } = &mut self.nodes[node_id];
        *size += 1;
        for (seg, syn) in segments.iter().zip(synopsis.iter_mut()) {
            let st = segment_stats(series, *seg);
            syn.absorb(st.mean, st.std);
        }
    }

    /// Splits an overflowing leaf using the best-scoring candidate
    /// (horizontal or vertical).
    fn split_leaf(&mut self, node_id: usize, src: &FetchSource<'_>) {
        let members = self.nodes[node_id].leaf.members.clone();
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
            &self.nodes[node_id].segments,
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

        let left_id = self.nodes.len();
        self.nodes.push(left);
        let right_id = self.nodes.len();
        self.nodes.push(right);
        let parent = &mut self.nodes[node_id];
        parent.leaf.members.clear();
        parent.children = vec![left_id, right_id];
        parent.rule = Some(best.rule);
        parent.segments = child_segments;
        // The parent synopsis must be recomputed for the refined
        // segmentation: take the union of the children's synopses.
        let mut synopsis = vec![Synopsis::empty(); self.nodes[node_id].segments.len()];
        for &child in &[left_id, right_id] {
            for (i, syn) in self.nodes[child].synopsis.iter().enumerate() {
                synopsis[i].min_mean = synopsis[i].min_mean.min(syn.min_mean);
                synopsis[i].max_mean = synopsis[i].max_mean.max(syn.max_mean);
                synopsis[i].min_std = synopsis[i].min_std.min(syn.min_std);
                synopsis[i].max_std = synopsis[i].max_std.max(syn.max_std);
            }
        }
        self.nodes[node_id].synopsis = synopsis;
    }

    /// Number of leaves in the tree.
    pub fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }

    /// Average leaf fill factor (stored series / leaf capacity).
    pub fn avg_leaf_fill(&self) -> f64 {
        let leaves: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].is_leaf())
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

    /// The configuration the tree was built with.
    pub fn config(&self) -> &DsTreeConfig {
        &self.config
    }

    /// Lower bound between `query` and node `node_id` using the EAPCA
    /// synopsis: for every segment, the query's segment mean/std are clamped
    /// into the node's ranges, and the per-segment contribution is
    /// `len · ((μ_q - μ̂)² + (σ_q - σ̂)²)`.
    fn node_min_dist(&self, query: &[f32], node_id: usize) -> f32 {
        let node = &self.nodes[node_id];
        if node.size == 0 {
            return f32::INFINITY;
        }
        let mut acc = 0.0f32;
        for (seg, syn) in node.segments.iter().zip(node.synopsis.iter()) {
            let st = segment_stats(query, *seg);
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

/// Everything that shapes a DSTree build, hashed together with the dataset
/// content (see [`PersistentIndex`]). The storage configuration is
/// deliberately **not** hashed — page size, pool capacity and backing shape
/// only I/O economics, never the tree or its answers, so a snapshot may be
/// served with any pool (`--pool-pages`) and either backing.
fn snapshot_fingerprint(config: &DsTreeConfig, data_fingerprint: u64) -> u64 {
    let mut f = Fingerprint::new();
    f.push_str(DsTree::KIND);
    f.push_usize(config.leaf_capacity);
    f.push_usize(config.initial_segments);
    f.push_usize(config.max_segments);
    f.push_usize(config.histogram_samples);
    f.push_u64(config.seed);
    f.push_u64(data_fingerprint);
    f.finish()
}

impl PersistentIndex for DsTree {
    type Config = DsTreeConfig;
    const KIND: &'static str = "dstree";

    /// Snapshots the tree (per-node segmentation, EAPCA synopsis, split
    /// rule, leaf extents), the leaf-order-to-dataset mapping and the δ-ε
    /// histogram; the raw series are re-attached from the dataset at load
    /// time (resident or file-backed). A tree grown by
    /// [`AnnIndex::insert_batch`] snapshots byte-identically to a fresh
    /// build over the grown collection (see
    /// [`Collection::snapshot_layout`]).
    fn save(&self, path: &Path) -> hydra_persist::Result<()> {
        let mut w = SnapshotWriter::new(
            Self::KIND,
            snapshot_fingerprint(&self.config, self.collection.fingerprint()),
        );

        let (extents, mapping) = self
            .collection
            .snapshot_layout(self.nodes.iter().map(|n| n.is_leaf().then_some(&n.leaf)));

        let mut meta = Section::new();
        meta.put_usize(self.series_len);
        meta.put_usize(self.collection.len());
        meta.put_usize(self.nodes.len());
        w.push(meta);

        let mut nodes = Section::new();
        for (node, &(store_start, store_len)) in self.nodes.iter().zip(extents.iter()) {
            nodes.put_usize(node.segments.len());
            for seg in &node.segments {
                nodes.put_usize(seg.start);
                nodes.put_usize(seg.end);
            }
            for syn in &node.synopsis {
                nodes.put_f32(syn.min_mean);
                nodes.put_f32(syn.max_mean);
                nodes.put_f32(syn.min_std);
                nodes.put_f32(syn.max_std);
            }
            nodes.put_usizes(&node.children);
            match node.rule {
                None => nodes.put_bool(false),
                Some(rule) => {
                    nodes.put_bool(true);
                    nodes.put_usize(rule.segment);
                    nodes.put_u8(match rule.kind {
                        SplitKind::Mean => 0,
                        SplitKind::Std => 1,
                    });
                    nodes.put_f32(rule.threshold);
                }
            }
            nodes.put_usize(store_start);
            nodes.put_usize(store_len);
            nodes.put_usize(node.size);
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
        config: &DsTreeConfig,
        backing: StoreBacking<'_>,
    ) -> hydra_persist::Result<Self> {
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
        for _ in 0..node_count {
            let seg_count = sec.get_usize()?;
            let mut segments = Vec::with_capacity(seg_count);
            for _ in 0..seg_count {
                let start = sec.get_usize()?;
                let end = sec.get_usize()?;
                if start >= end || end > series_len {
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
            let leaf = Leaf::from_extent(sec.get_usize()?, sec.get_usize()?, num_series)?;
            let size = sec.get_usize()?;
            nodes.push(Node {
                segments,
                synopsis,
                children,
                rule,
                leaf,
                size,
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

        Ok(Self {
            config: *config,
            series_len,
            nodes,
            collection,
            histogram,
        })
    }
}

impl HierarchicalIndex for DsTree {
    /// Nothing to hoist: segmentations differ from node to node, so the
    /// query's segment statistics are per node too.
    type Prepared = ();

    fn roots(&self) -> &[usize] {
        &[0]
    }

    fn is_leaf(&self, node: usize) -> bool {
        self.nodes[node].is_leaf()
    }

    fn children(&self, node: usize) -> &[usize] {
        &self.nodes[node].children
    }

    fn prepare(&self, _query: &[f32]) {}

    fn min_dist(&self, query: &[f32], _prepared: &(), node: usize) -> f32 {
        self.node_min_dist(query, node)
    }

    fn leaf_size(&self, node: usize) -> usize {
        self.collection.leaf_len(&self.nodes[node].leaf)
    }

    fn refine_leaf(
        &self,
        node: usize,
        query: &[f32],
        _prepared: &(),
        best_so_far: f32,
        stats: &mut QueryStats,
        accept: &mut dyn FnMut(usize, f32) -> f32,
    ) -> u64 {
        // EAPCA summarizes nodes, not series: every member is compared.
        self.collection.refine_leaf(
            &self.nodes[node].leaf,
            query,
            best_so_far,
            stats,
            |_, _| true,
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
        self.collection.len()
    }

    fn series_len(&self) -> usize {
        self.series_len
    }

    fn memory_footprint(&self) -> usize {
        // The index structure itself: nodes with segmentation + synopsis.
        // Raw series live on (simulated) disk and are not counted, matching
        // how the paper reports DSTree's small footprint.
        self.nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<Node>()
                    + n.segments.len() * std::mem::size_of::<Segment>()
                    + n.synopsis.len() * std::mem::size_of::<Synopsis>()
            })
            .sum::<usize>()
            + self.collection.mapping_bytes()
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
    /// series is appended to the store (arrival order), routed down the
    /// tree — updating every synopsis on its path — and split on overflow
    /// exactly as [`DsTree::build`] would have done, so the grown tree's
    /// topology, synopses and answers are identical to a fresh build over
    /// the full collection. The δ-ε histogram is re-sampled over the grown
    /// collection after the batch.
    fn insert_batch(&mut self, batch: &[&[f32]]) -> Result<()> {
        self.collection.check_lengths(batch)?;
        if batch.is_empty() {
            return Ok(());
        }
        self.collection.activate_growth(leaves_mut(&mut self.nodes));
        for series in batch {
            let id = self.collection.append(series)?;
            self.insert_series(id, series, &FetchSource::Store);
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

    fn build_small(n: usize, len: usize) -> (Dataset, DsTree) {
        let data = random_walk(n, len, 42);
        let config = DsTreeConfig {
            leaf_capacity: 16,
            initial_segments: 4,
            max_segments: 8,
            storage: StorageConfig::in_memory(),
            histogram_samples: 2_000,
            seed: 1,
        };
        let tree = DsTree::build(&data, config).unwrap();
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
        let total: usize = (0..tree.nodes.len())
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
