//! The kept SAX words of a leaf-ordered tree: one fixed-width row of
//! full-cardinality symbols per store row of its [`Collection`].
//!
//! A tree whose leaves live in a [`Collection`] can gate each member of a
//! visited leaf on a summary of that one series before the store reads it
//! (see [`Collection::refine_leaf`]). The summary both trees keep is the
//! series' SAX word: `word_len` bytes, fixed at insert time — a word never
//! changes when a leaf splits, so growth only appends. iSAX2+ also routes
//! and splits on the words; DSTree only gates on them.
//!
//! [`WordColumn`] owns the rows' life cycle: kept in arrival order while a
//! build inserts, permuted into store-row order once the collection is
//! materialized, appended to on ingest, and rebuilt by one uncharged pass
//! over the store on load — never persisted, so no snapshot byte depends
//! on it.

use hydra_summarize::paa::paa;
use hydra_summarize::sax::{normal_breakpoints, sax_word, IsaxWord, SaxParams};

use crate::backing::Collection;

/// The full-cardinality SAX word of every series of a [`Collection`], one
/// `word_len`-byte row per store row (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct WordColumn {
    params: SaxParams,
    /// `-∞`, the breakpoints, then `+∞` up to the end: symbol `s` spans
    /// `edges[s] .. edges[s + 1]`, and no `u8` symbol reads past the end.
    edges: Box<[f32; 257]>,
    /// Symbols of the alphabet: `2^max_bits`.
    cardinality: usize,
    /// Symbols per word: `params.segments`, clamped to the series length as
    /// [`sax_word`] clamps it.
    word_len: usize,
    /// What one segment weighs in a member bound: the length of the
    /// shortest PAA segment.
    segment_len: f32,
    /// `word_len` symbols per row.
    symbols: Vec<u8>,
}

impl WordColumn {
    /// An empty column for series of `series_len` points. `params` must be
    /// valid ([`SaxParams::validate`]).
    pub fn new(series_len: usize, params: SaxParams) -> Self {
        let breakpoints = normal_breakpoints(params.max_cardinality());
        let mut edges = Box::new([f32::INFINITY; 257]);
        edges[0] = f32::NEG_INFINITY;
        edges[1..=breakpoints.len()].copy_from_slice(&breakpoints);
        let word_len = params.segments.min(series_len).max(1);
        Self {
            params,
            edges,
            cardinality: breakpoints.len() + 1,
            word_len,
            segment_len: (series_len / word_len).max(1) as f32,
            symbols: Vec::new(),
        }
    }

    /// The column of a collection being loaded: one uncharged pass over its
    /// store, in store-row order.
    pub fn rebuild(collection: &Collection, params: SaxParams) -> Self {
        let mut words = Self::new(collection.series_len(), params);
        words.symbols.reserve(collection.len() * words.word_len);
        collection.store().for_each_series(&mut |_, series| {
            words.push(series);
        });
        words
    }

    /// Computes the full-cardinality word of `series`, keeps its symbols as
    /// the next row and returns it: the arrival-order row while a build
    /// inserts, the series' store row once the collection grows.
    pub fn push(&mut self, series: &[f32]) -> IsaxWord {
        let word = sax_word(series, &self.params, self.breakpoints());
        self.symbols.extend(word.symbols.iter().map(|&s| s as u8));
        word
    }

    /// Permutes the rows kept in arrival order (dataset id order) into the
    /// store-row order [`crate::LeafTree::lay_out`] just laid out.
    pub fn materialize(&mut self, collection: &Collection) {
        let arrival = std::mem::take(&mut self.symbols);
        let word_len = self.word_len;
        self.symbols = collection
            .dataset_ids()
            .iter()
            .flat_map(|&id| &arrival[id * word_len..][..word_len])
            .copied()
            .collect();
    }

    /// The word of store row `row`.
    #[inline]
    pub fn row(&self, row: usize) -> &[u8] {
        &self.symbols[row * self.word_len..][..self.word_len]
    }

    /// The word of the series with dataset id `id`: at its store row — or,
    /// while a build is still inserting and the collection is empty, at its
    /// arrival position.
    #[inline]
    pub fn of_id(&self, collection: &Collection, id: usize) -> &[u8] {
        if collection.is_empty() {
            self.row(id)
        } else {
            self.row(collection.row_of(id))
        }
    }

    /// Symbols per word.
    #[inline]
    pub fn word_len(&self) -> usize {
        self.word_len
    }

    /// The breakpoints the words were cut at (`2^max_bits - 1` of them).
    #[inline]
    pub fn breakpoints(&self) -> &[f32] {
        &self.edges[1..self.cardinality]
    }

    /// The PAA of `query` at the words' segmentation — what
    /// [`WordColumn::bound_squared`] takes.
    pub fn query_paa(&self, query: &[f32]) -> Vec<f32> {
        paa(query, self.params.segments)
    }

    /// The squared lower bound on the distance from the query whose PAA is
    /// `query_paa` to the series in store row `row`, from its word alone:
    /// per segment, the squared gap from the query's PAA value to the
    /// symbol's cell (zero inside it), weighted by the shortest segment's
    /// length. No per-query table: the cell edges are read as they are.
    /// The segments add into four sums side by side (segment `i` of the
    /// whole fours into sum `i % 4`, any tail into the first).
    #[inline]
    pub fn bound_squared(&self, query_paa: &[f32], row: usize) -> f32 {
        let gap_squared = |q: f32, s: u8| {
            let (lo, hi) = (self.edges[s as usize], self.edges[s as usize + 1]);
            // At most one of the two is positive: `lo <= hi`.
            let gap = (lo - q).max(0.0) + (q - hi).max(0.0);
            gap * gap
        };
        let word = self.row(row);
        let mut lanes = [0.0f32; 4];
        let (qs, ss) = (query_paa.chunks_exact(4), word.chunks_exact(4));
        for (&q, &s) in qs.remainder().iter().zip(ss.remainder()) {
            lanes[0] += gap_squared(q, s);
        }
        for (q, s) in qs.zip(ss) {
            for lane in 0..4 {
                lanes[lane] += gap_squared(q[lane], s[lane]);
            }
        }
        self.segment_len * ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
    }

    /// Heap bytes held: the symbols and the cell edges.
    pub fn heap_bytes(&self) -> usize {
        self.symbols.len() + self.edges.len() * std::mem::size_of::<f32>()
    }
}
