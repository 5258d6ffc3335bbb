//! The leaf-ordered tree frame: what DSTree and iSAX2+ share.
//!
//! [`LeafTree`] holds a tree's nodes (behind the small [`TreeNode`] trait),
//! its leaf-ordered [`Collection`], its kept [`WordColumn`] and its δ-ε
//! histogram (a [`LazyHistogram`]: a build leaves it empty, an ingest batch
//! resets it, and the first δ-ε query or save samples it). It is the one
//! writer of the leaf-ordered snapshot — sections meta (series length,
//! series count, node count), nodes (each encoded by the tree, which places
//! the leaf extent it is handed), mapping and histogram — and of the growth
//! protocol around an ingest batch. A tree keeps its node type, query
//! preparation, node bounds, routing, splitting and member gate.

use std::path::Path;

use hydra_core::{Dataset, DistanceHistogram, Error, HierarchicalIndex, QueryStats};
use hydra_storage::StorageConfig;
use hydra_summarize::paa::paa;
use hydra_summarize::sax::SaxParams;

use crate::backing::{Collection, LazyHistogram, Leaf};
use crate::codec;
use crate::error::{PersistError, Result};
use crate::snapshot::{Section, SectionReader};
use crate::stream::DataSource;
use crate::words::WordColumn;
use crate::{PersistentIndex, StoreBacking};

/// A node of a [`LeafTree`].
pub trait TreeNode {
    /// Whether node 0 is a virtual root: never a leaf, whatever its
    /// children.
    const VIRTUAL_ROOT: bool = false;
    /// The node's children, by id (empty for a leaf).
    fn children(&self) -> &[usize];
    /// The node's series; empty once it has split.
    fn leaf(&self) -> &Leaf;
    /// The node's series, filled while building and ingesting.
    fn leaf_mut(&mut self) -> &mut Leaf;
}

/// The build parameters the frame reads of a tree's configuration.
#[derive(Debug, Clone, Copy)]
pub struct LeafTreeConfig {
    /// Maximum number of series a leaf may hold before splitting.
    pub leaf_capacity: usize,
    /// Storage configuration for the raw series.
    pub storage: StorageConfig,
    /// Pairwise-distance samples of the δ-ε histogram.
    pub histogram_samples: usize,
    /// Seed of the histogram sampling.
    pub seed: u64,
    /// Shape of the kept member words.
    pub words: SaxParams,
}

/// The node a tree's decoder is reading ([`LeafTree::load`]).
#[derive(Debug, Clone, Copy)]
pub struct NodeSlot {
    /// The node's id.
    pub id: usize,
    /// The length of every series.
    pub series_len: usize,
    num_series: usize,
}

impl NodeSlot {
    /// Reads the leaf extent `(start, len)` the node's encoder was handed.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] if the extent exceeds the series store.
    pub fn leaf(&self, sec: &mut SectionReader<'_>) -> Result<Leaf> {
        Leaf::from_extent(sec.get_usize()?, sec.get_usize()?, self.num_series)
    }
}

/// A tree whose leaves own contiguous extents of a leaf-ordered
/// [`Collection`] (see the module docs).
#[derive(Debug)]
pub struct LeafTree<N> {
    /// Every node, by id; node 0 is the root.
    pub nodes: Vec<N>,
    /// Leaf-ordered raw series (the simulated on-disk layout).
    pub collection: Collection,
    /// The SAX word of every series' PAA ([`LeafTree::paa`]), in store-row
    /// order (arrival order while a build is still inserting).
    pub words: WordColumn,
    /// The δ-ε distance histogram, derived on first use after a build or
    /// an ingest batch ([`LeafTree::histogram`]).
    pub histogram: LazyHistogram,
    config: LeafTreeConfig,
}

impl<N: TreeNode> LeafTree<N> {
    /// An empty frame to build over `dataset`; the tree pushes its nodes,
    /// inserts every series, then calls [`LeafTree::lay_out`].
    ///
    /// # Errors
    /// [`Error::EmptyDataset`], or [`Error::InvalidParameter`] for a zero
    /// leaf capacity or invalid word parameters.
    pub fn new(dataset: &Dataset, config: LeafTreeConfig) -> hydra_core::Result<Self> {
        if dataset.is_empty() {
            return Err(Error::EmptyDataset);
        }
        if config.leaf_capacity == 0 {
            return Err(Error::InvalidParameter("leaf capacity must be positive".into()));
        }
        config.words.validate().map_err(Error::InvalidParameter)?;
        Ok(Self {
            nodes: Vec::new(),
            collection: Collection::leaf_order(dataset.series_len(), config.storage)?,
            words: WordColumn::new(dataset.series_len(), config.words),
            histogram: LazyHistogram::default(),
            config,
        })
    }

    /// Ends a build: every leaf's members written contiguously into the
    /// store, in node order, and the kept words permuted to match.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] if `dataset` has another series length.
    pub fn lay_out(&mut self, dataset: &Dataset) -> hydra_core::Result<()> {
        self.collection.materialize(dataset, leaves_mut(&mut self.nodes))?;
        self.words.materialize(&self.collection);
        Ok(())
    }

    /// The PAA of `series` at the kept words' segmentation: what a word
    /// encodes, and what a query fills its [`WordColumn::gaps`] table from.
    pub fn paa(&self, series: &[f32]) -> Vec<f32> {
        paa(series, self.config.words.segments)
    }

    /// Keeps the word of `series` as the next row of `words`.
    pub fn push_word(&mut self, series: &[f32]) {
        let values = self.paa(series);
        self.words.push(&values);
    }

    /// Whether node `node` is a leaf.
    #[inline]
    pub fn is_leaf(&self, node: usize) -> bool {
        !(N::VIRTUAL_ROOT && node == 0) && self.nodes[node].children().is_empty()
    }

    /// The children of node `node`.
    #[inline]
    pub fn children(&self, node: usize) -> &[usize] {
        self.nodes[node].children()
    }

    /// The number of series in node `node` (0 for an internal node).
    #[inline]
    pub fn leaf_size(&self, node: usize) -> usize {
        self.collection.leaf_len(self.nodes[node].leaf())
    }

    /// [`HierarchicalIndex::refine_leaf`] of leaf `node`, each member
    /// checked by `gate` — one lower-bound computation each — before it is
    /// read (see [`Collection::refine_leaf`]).
    #[inline]
    pub fn refine_leaf(
        &self,
        node: usize,
        query: &[f32],
        best_so_far: f32,
        stats: &mut QueryStats,
        gate: impl FnMut(usize, f32) -> bool,
        accept: &mut dyn FnMut(usize, f32) -> f32,
    ) -> u64 {
        let leaf = self.nodes[node].leaf();
        stats.lower_bound_computations += self.collection.leaf_len(leaf) as u64;
        self.collection
            .refine_leaf(leaf, query, best_so_far, stats, gate, accept)
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        (0..self.nodes.len()).filter(|&i| self.is_leaf(i)).count()
    }

    /// Average leaf fill factor (stored series / leaf capacity).
    pub fn avg_leaf_fill(&self) -> f64 {
        let leaves: Vec<usize> = (0..self.nodes.len()).filter(|&i| self.is_leaf(i)).collect();
        if leaves.is_empty() {
            return 0.0;
        }
        let total: usize = leaves.iter().map(|&i| self.leaf_size(i)).sum();
        total as f64 / (leaves.len() * self.config.leaf_capacity) as f64
    }

    /// `tree` with every member of a visited leaf read and compared — no
    /// gate: the reference its gated search is held to.
    pub fn ungated<'a, T: HierarchicalIndex>(&'a self, tree: &'a T) -> Ungated<'a, T>
    where
        N: 'a,
    {
        let leaf_of = Box::new(move |node: usize| self.nodes[node].leaf());
        Ungated { tree, collection: &self.collection, leaf_of }
    }

    /// Starts an ingest batch: rejects it whole if a series has the wrong
    /// length and switches the collection into growth mode. `false` for an
    /// empty batch, which changes nothing.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] naming the first offending length.
    pub fn begin_ingest(&mut self, batch: &[&[f32]]) -> hydra_core::Result<bool> {
        self.collection.check_lengths(batch)?;
        if batch.is_empty() {
            return Ok(false);
        }
        self.collection.activate_growth(leaves_mut(&mut self.nodes));
        Ok(true)
    }

    /// Ends an ingest batch: the histogram is reset, to be sampled over
    /// the grown collection by the next δ-ε query or save, and the store's
    /// I/O counters are reset — a fresh build hands out a store with clean
    /// counters, and ingest restores the same post-build state.
    pub fn end_ingest(&mut self) {
        self.histogram.reset();
        self.collection.store().reset_io();
    }

    /// The δ-ε distance histogram, sampled over the collection first if a
    /// build or an ingest batch left it empty
    /// ([`LazyHistogram::get_or_sample`]).
    pub fn histogram(&self) -> &DistanceHistogram {
        let (samples, seed) = (self.config.histogram_samples, self.config.seed);
        self.histogram.get_or_sample(&self.collection, samples, seed)
    }

    /// Writes the snapshot of the tree `I`, each node encoded by `put_node`
    /// with its leaf extent `(start, len)`. A grown tree snapshots
    /// byte-identically to a fresh build over the grown collection.
    ///
    /// # Errors
    /// [`PersistError::Io`] if the file cannot be written.
    pub fn save<I: PersistentIndex>(
        &self,
        path: &Path,
        config: &I::Config,
        mut put_node: impl FnMut(&N, &mut Section, (usize, usize)),
    ) -> Result<()> {
        let mut w = I::snapshot_writer(config, self.collection.fingerprint());
        let (extents, mapping) = self.collection.snapshot_layout(
            (0..self.nodes.len()).map(|i| self.is_leaf(i).then(|| self.nodes[i].leaf())),
        );
        let mut meta = Section::new();
        meta.put_usize(self.collection.series_len());
        meta.put_usize(self.collection.len());
        meta.put_usize(self.nodes.len());
        w.push(meta);
        let mut nodes = Section::new();
        for (node, &extent) in self.nodes.iter().zip(&extents) {
            put_node(node, &mut nodes, extent);
        }
        w.push(nodes);
        let mut mapping_sec = Section::new();
        mapping_sec.put_usizes(&mapping);
        w.push(mapping_sec);
        let mut hist = Section::new();
        codec::put_histogram(&mut hist, self.histogram());
        w.push(hist);
        w.write_to(path)
    }

    /// Loads what [`LeafTree::save`] wrote, each node decoded by
    /// `get_node`, re-attaching the raw series of `source` under `backing`
    /// without ever materializing a streamed dataset; the kept words are
    /// rebuilt, never read.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] for invalid word parameters (before the
    /// file is opened), a meta section disagreeing with `source`, a child
    /// id out of range, or whatever `get_node` rejects; otherwise
    /// [`PersistentIndex::open_snapshot`]'s and [`Collection::attach`]'s.
    pub fn load<I: PersistentIndex>(
        path: &Path,
        source: DataSource<'_>,
        config: &I::Config,
        backing: StoreBacking<'_>,
        tree: LeafTreeConfig,
        mut get_node: impl FnMut(&mut SectionReader<'_>, NodeSlot) -> Result<N>,
    ) -> Result<Self> {
        tree.words.validate().map_err(|e| {
            PersistError::Corrupt(format!("cannot rebuild the {} tree: {e}", I::KIND))
        })?;
        let data_fingerprint = source.fingerprint();
        let mut r = I::open_snapshot(path, config, data_fingerprint)?;
        let mut meta = r.next_section()?;
        let (series_len, num_series) = (meta.get_usize()?, meta.get_usize()?);
        let node_count = meta.get_usize()?;
        if series_len != source.series_len() || num_series != source.len() {
            return Err(PersistError::Corrupt(
                "snapshot metadata disagrees with the dataset".into(),
            ));
        }
        let mut sec = r.next_section()?;
        let nodes = (0..node_count)
            .map(|id| get_node(&mut sec, NodeSlot { id, series_len, num_series }))
            .collect::<Result<Vec<N>>>()?;
        if nodes
            .iter()
            .any(|n| n.children().iter().any(|&c| c == 0 || c >= node_count))
        {
            return Err(PersistError::Corrupt("node child id out of range".into()));
        }
        let mapping = r.next_section()?.get_usizes()?;
        let histogram = codec::get_histogram(&mut r.next_section()?)?;
        let collection =
            Collection::attach(path, source, data_fingerprint, Some(mapping), tree.storage, backing)?;
        Ok(Self {
            nodes,
            words: WordColumn::new(series_len, tree.words)
                .rebuild(&collection, |series| paa(series, tree.words.segments)),
            collection,
            histogram: LazyHistogram::new(histogram),
            config: tree,
        })
    }
}

/// The leaves of `nodes`, in node order.
fn leaves_mut<N: TreeNode>(nodes: &mut [N]) -> impl Iterator<Item = &mut Leaf> {
    nodes
        .iter_mut()
        .enumerate()
        .filter(|(id, node)| !(N::VIRTUAL_ROOT && *id == 0) && node.children().is_empty())
        .map(|(_, node)| node.leaf_mut())
}

/// A tree whose leaves are refined without its member gate, through
/// [`Collection::visit_leaf`] ([`LeafTree::ungated`]): every other call is
/// the tree's own, so a search over it visits the same leaves in the same
/// order and differs only in the series it reads.
pub struct Ungated<'a, T> {
    tree: &'a T,
    collection: &'a Collection,
    leaf_of: Box<dyn Fn(usize) -> &'a Leaf + 'a>,
}

impl<T: HierarchicalIndex> HierarchicalIndex for Ungated<'_, T> {
    type Prepared = T::Prepared;

    fn roots(&self) -> &[usize] {
        self.tree.roots()
    }

    fn is_leaf(&self, node: usize) -> bool {
        self.tree.is_leaf(node)
    }

    fn children(&self, node: usize) -> &[usize] {
        self.tree.children(node)
    }

    fn prepare(&self, query: &[f32]) -> T::Prepared {
        self.tree.prepare(query)
    }

    fn min_dist(&self, query: &[f32], prepared: &T::Prepared, node: usize) -> f32 {
        self.tree.min_dist(query, prepared, node)
    }

    fn leaf_size(&self, node: usize) -> usize {
        self.tree.leaf_size(node)
    }

    fn refine_leaf(
        &self,
        node: usize,
        query: &[f32],
        _prepared: &T::Prepared,
        best_so_far: f32,
        stats: &mut QueryStats,
        accept: &mut dyn FnMut(usize, f32) -> f32,
    ) -> u64 {
        let mut bound = best_so_far;
        let mut compared = 0;
        self.collection
            .visit_leaf((self.leaf_of)(node), stats, &mut |id, series| {
                compared += 1;
                if let Some(d) = hydra_core::euclidean_early_abandon(query, series, bound) {
                    bound = accept(id, d);
                }
            });
        compared
    }
}
