//! The per-row cells of an index that prunes on quantized summaries: one
//! row of `u8` cells per series, one cell per dimension of its summary.
//! [`WordColumn`] owns the cell edges, the value → cell encoding and the
//! cell → bound computation; an index hands it summary values.
//!
//! A search bounds many rows against one query, so it first turns the
//! query's values into a [`GapTable`] ([`WordColumn::gaps`]): the squared
//! gap from the query to every cell of every dimension. A row's bound is
//! then one table read per dimension ([`WordColumn::bound_squared`]); no
//! bound reads a cell edge.
//!
//! * **SAX words** ([`WordColumn::new`]): the N(0,1) breakpoints in every
//!   dimension, over a series' PAA. Both leaf-ordered trees gate each
//!   member of a visited leaf on its word before the store reads it (see
//!   [`Collection::refine_leaf`]); iSAX2+ also routes and splits on them.
//!   The rows are kept in arrival order while a build inserts, permuted
//!   into store-row order once the collection is materialized, appended to
//!   on ingest, and rebuilt by one uncharged pass on load — never persisted.
//! * **Equi-depth cells** ([`WordColumn::trained`]): per dimension, edges
//!   at the quantiles of the values trained on — the VA+file's
//!   approximation file over DFT summaries, persisted ([`WordColumn::put`]).

use hydra_core::workers::fill_rows;
use hydra_summarize::sax::{normal_breakpoints, value_to_symbol, SaxParams};

use crate::backing::Collection;
use crate::error::{PersistError, Result};
use crate::snapshot::{Section, SectionReader};

/// The cells of `values`, one per dimension of `edges` (`cells` per
/// dimension): each value goes to the cell SAX's [`value_to_symbol`] picks
/// among its dimension's inner edges.
fn encode<'a>(
    edges: &'a [[f32; 257]],
    cells: usize,
    values: &'a [f32],
) -> impl Iterator<Item = u8> + 'a {
    debug_assert_eq!(values.len(), edges.len());
    values
        .iter()
        .zip(edges)
        .map(move |(&v, e)| value_to_symbol(v, &e[1..cells]) as u8)
}

/// A query's squared gap to every cell of a [`WordColumn`], made once per
/// query by [`WordColumn::gaps`] and read by every bound of that query.
/// Row `d` holds dimension `d`'s `cells()` values, then zeros up to 256, so
/// no `u8` cell reads past it: 16 KiB at 16 dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct GapTable(Box<[[f32; 256]]>);

impl GapTable {
    /// The squared gaps, one row per dimension, by cell.
    #[inline]
    pub fn dims(&self) -> &[[f32; 256]] {
        &self.0
    }
}

/// One fixed-width row of `u8` cells per series, and the cell edges of
/// every dimension (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct WordColumn {
    /// Per dimension: its `cells() + 1` edges, then `+∞` up to the end.
    /// Cell `c` spans `edges[d][c] .. edges[d][c + 1]`, and no `u8` cell
    /// reads past the end.
    edges: Box<[[f32; 257]]>,
    /// Cells per dimension: `2^bits` for `bits` in `1..=8`.
    cells: usize,
    /// What one dimension weighs in a bound: for a SAX word, the length of
    /// the shortest PAA segment; `1` for trained cells.
    weight: f32,
    /// `edges.len()` cells per row.
    symbols: Vec<u8>,
}

impl WordColumn {
    /// An empty column of SAX words for series of `series_len` points: the
    /// N(0,1) breakpoints in each of `params.segments` dimensions, clamped
    /// to the series length as the PAA clamps it. `params` must be valid
    /// ([`SaxParams::validate`]).
    pub fn new(series_len: usize, params: SaxParams) -> Self {
        let mut dim = vec![f32::NEG_INFINITY];
        dim.extend(normal_breakpoints(params.max_cardinality()));
        dim.push(f32::INFINITY);
        let word_len = params.segments.min(series_len).max(1);
        let weight = (series_len / word_len).max(1) as f32;
        Self::from_edges(&dim.repeat(word_len), params.max_bits, weight, Vec::new())
    }

    /// A column of `dims`-value rows with `2^bits` equi-depth cells per
    /// dimension, trained on `values` (the rows, back to back) and holding
    /// the row of each. A dimension's edges are the `c / 2^bits` quantiles
    /// of its values for `c` in `0..=2^bits`, from the minimum to the
    /// maximum: VA+ adapts cell sizes to the data. Repeated edges stay as
    /// they are; a value on one is encoded into a cell it bounds.
    ///
    /// # Panics
    /// If `values` is empty or holds a partial row, or `bits` is outside
    /// `1..=8`.
    pub fn trained(values: &[f32], dims: usize, bits: u8) -> Self {
        assert!((1..=8).contains(&bits), "{bits}-bit cells do not fit a u8");
        assert!(dims > 0 && !values.is_empty() && values.len() % dims == 0);
        let (n, cells) = (values.len() / dims, 1usize << bits);
        let mut column = Vec::with_capacity(n);
        let mut edges = Vec::with_capacity(dims * (cells + 1));
        for d in 0..dims {
            column.clear();
            column.extend(values.iter().skip(d).step_by(dims));
            column.sort_by(f32::total_cmp);
            let quantile =
                |c: usize| column[((c * (n - 1)) as f64 / cells as f64).round() as usize];
            edges.extend((0..=cells).map(quantile));
        }
        let mut trained = Self::from_edges(&edges, bits, 1.0, Vec::with_capacity(values.len()));
        for row in values.chunks_exact(dims) {
            trained.push(row);
        }
        trained
    }

    /// A column whose dimension `d` has the `2^bits + 1` edges at
    /// `edges[d * (2^bits + 1)..]`, holding the rows `symbols`.
    fn from_edges(edges: &[f32], bits: u8, weight: f32, symbols: Vec<u8>) -> Self {
        let cells = 1 << bits;
        let padded = edges.chunks_exact(cells + 1).map(|kept| {
            let mut e = [f32::INFINITY; 257];
            e[..=cells].copy_from_slice(kept);
            e
        });
        let edges = padded.collect();
        Self {
            edges,
            cells,
            weight,
            symbols,
        }
    }

    /// Appends the row of every series of `collection`, in store-row order,
    /// each summarized by the transform `f`: one uncharged pass over its
    /// store, for a collection being loaded. Over a resident store the rows
    /// are encoded in runs on the fan-out ([`fill_rows`]), each straight
    /// into its place.
    pub fn rebuild(
        mut self,
        collection: &Collection,
        f: impl Fn(&[f32]) -> Vec<f32> + Sync,
    ) -> Self {
        let store = collection.store();
        let word_len = self.word_len();
        let Ok(values) = store.as_flat() else {
            self.symbols.reserve(collection.len() * word_len);
            store.for_each_series(&mut |_, series| self.push(&f(series)));
            return self;
        };
        let mut symbols = std::mem::take(&mut self.symbols);
        let kept = symbols.len();
        symbols.resize(kept + collection.len() * word_len, 0);
        let series_len = store.series_len();
        fill_rows(&mut symbols[kept..], word_len, |first, rows| {
            let series = values[first * series_len..].chunks_exact(series_len);
            for (row, series) in rows.chunks_exact_mut(word_len).zip(series) {
                let values = f(series);
                let cells = encode(&self.edges, self.cells, &values);
                row.iter_mut().zip(cells).for_each(|(cell, s)| *cell = s);
            }
        });
        self.symbols = symbols;
        self
    }

    /// Encodes `values`, one per dimension, and keeps their cells as the
    /// next row: the arrival-order row while a build inserts, the series'
    /// store row once the collection grows. A value goes to the cell SAX's
    /// [`value_to_symbol`] picks among its dimension's inner edges.
    pub fn push(&mut self, values: &[f32]) {
        self.symbols.extend(encode(&self.edges, self.cells, values));
    }

    /// Permutes the rows kept in arrival order (dataset id order) into the
    /// store-row order [`crate::LeafTree::lay_out`] just laid out.
    pub fn materialize(&mut self, collection: &Collection) {
        let arrival = std::mem::take(&mut self.symbols);
        let word_len = self.word_len();
        self.symbols = collection
            .dataset_ids()
            .iter()
            .flat_map(|&id| &arrival[id * word_len..][..word_len])
            .copied()
            .collect();
    }

    /// The cells of store row `row`.
    #[inline]
    pub fn row(&self, row: usize) -> &[u8] {
        let word_len = self.word_len();
        &self.symbols[row * word_len..][..word_len]
    }

    /// The cells of the series with dataset id `id`: at its store row — or,
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

    /// Cells per row: the dimensions.
    #[inline]
    pub fn word_len(&self) -> usize {
        self.edges.len()
    }

    /// Cells per dimension.
    #[inline]
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The inner edges of the first dimension (`cells() - 1` of them): of a
    /// SAX column, the breakpoints every dimension shares.
    #[inline]
    pub fn breakpoints(&self) -> &[f32] {
        &self.edges[0][1..self.cells()]
    }

    /// What one dimension weighs in a bound: for a SAX word, the length of
    /// the shortest PAA segment (`⌊n / segments⌋`); `1` for trained cells.
    #[inline]
    pub fn weight(&self) -> f32 {
        self.weight
    }

    /// The table of the query whose summary is `values` (one per
    /// dimension): per dimension and cell, the squared gap from the value
    /// to the cell, zero inside it.
    pub fn gaps(&self, values: &[f32]) -> GapTable {
        debug_assert_eq!(values.len(), self.word_len());
        let mut table = vec![[0.0f32; 256]; self.word_len()].into_boxed_slice();
        for ((row, e), &q) in table.iter_mut().zip(&self.edges).zip(values) {
            let cells = row[..self.cells]
                .iter_mut()
                .zip(&e[..self.cells])
                .zip(&e[1..]);
            for ((gap_squared, &lo), &hi) in cells {
                // At most one of the two is positive: `lo <= hi`.
                let gap = (lo - q).max(0.0) + (q - hi).max(0.0);
                *gap_squared = gap * gap;
            }
        }
        GapTable(table)
    }

    /// The squared lower bound on the distance from the query `gaps` was
    /// made for to the series in store row `row`, from its cells alone: per
    /// dimension, the query's squared gap to the row's cell, times the
    /// column's one weight. The dimensions add into four sums side by side
    /// (dimension `i` of the whole fours into sum `i % 4`, any tail into
    /// the first).
    #[inline]
    pub fn bound_squared(&self, gaps: &GapTable, row: usize) -> f32 {
        debug_assert_eq!(gaps.0.len(), self.word_len());
        let mut lanes = [0.0f32; 4];
        let (gs, ss) = (gaps.0.chunks_exact(4), self.row(row).chunks_exact(4));
        for (g, &s) in gs.remainder().iter().zip(ss.remainder()) {
            lanes[0] += g[s as usize];
        }
        for (g, s) in gs.zip(ss) {
            for lane in 0..4 {
                lanes[lane] += g[lane][s[lane] as usize];
            }
        }
        self.weight * ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
    }

    /// Heap bytes held: the rows and the cell edges.
    pub fn heap_bytes(&self) -> usize {
        self.symbols.len() + std::mem::size_of_val(&*self.edges)
    }

    /// Writes the bits per cell, each dimension's `cells() + 1` edges back
    /// to back, and the rows: what [`WordColumn::get`] reads.
    pub fn put(&self, s: &mut Section) {
        s.put_u8(self.cells.trailing_zeros() as u8);
        let kept = self.edges.iter().flat_map(|e| &e[..=self.cells()]);
        s.put_f32s(&kept.copied().collect::<Vec<f32>>());
        s.put_u8s(&self.symbols);
    }

    /// The trained column of `rows` rows of `dims` cells that
    /// [`WordColumn::put`] wrote.
    ///
    /// # Errors
    /// [`PersistError::Corrupt`] if the bits per cell are outside `1..=8`,
    /// there are not `dims × (cells() + 1)` edges and `rows × dims` cells,
    /// or a cell is `>= cells()`; [`PersistError::Truncated`] if the
    /// section ends early.
    pub fn get(s: &mut SectionReader<'_>, rows: usize, dims: usize) -> Result<Self> {
        let (bits, edges, symbols) = (s.get_u8()?, s.get_f32s()?, s.get_u8s()?);
        let cells = 1usize << bits.min(8);
        if !(1..=8).contains(&bits)
            || edges.len() != dims * (cells + 1)
            || rows.checked_mul(dims) != Some(symbols.len())
            || symbols.iter().any(|&c| c as usize >= cells)
        {
            return Err(PersistError::Corrupt(format!(
                "{bits}-bit cells of {dims} dimensions do not fit the stored edges and rows"
            )));
        }
        Ok(Self::from_edges(&edges, bits, 1.0, symbols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn trained_cells_never_bound_beyond_the_summary_distance(
            flat in proptest::collection::vec(-50.0f32..50.0, 16 * 20),
            query in proptest::collection::vec(-60.0f32..60.0, 16),
            bits in 1usize..9,
            constant in 0usize..2,
        ) {
            // Dimension 1 is constant, at 0 or far from it, as the DC
            // imaginary part of a real series is: all its edges repeat.
            let (constant, mut flat) = ([0.0f32, 100.0][constant], flat);
            flat.iter_mut().skip(1).step_by(16).for_each(|v| *v = constant);
            let column = WordColumn::trained(&flat, 16, bits as u8);
            prop_assert!(column.edges[1][..=1 << bits].iter().all(|&e| e == constant));
            let gaps = column.gaps(&query);
            for (row, v) in flat.chunks_exact(16).enumerate() {
                let bound = column.bound_squared(&gaps, row).sqrt();
                let d = hydra_core::euclidean(&query, v);
                prop_assert!(bound <= d + 1e-2, "bound {} > distance {}", bound, d);
                prop_assert_eq!(column.bound_squared(&column.gaps(v), row), 0.0);
            }
        }
    }

    /// The bound of store row `row` read from the cell edges, one dimension
    /// at a time: the squared gap from the query's value to the row's cell,
    /// any tail dimensions into the first of four sums, then dimension `i`
    /// of the whole fours into sum `i % 4`.
    fn bound_from_edges(column: &WordColumn, query: &[f32], row: usize) -> f32 {
        let gap_squared = |d: usize, cell: u8| {
            let (lo, hi) = (
                column.edges[d][cell as usize],
                column.edges[d][cell as usize + 1],
            );
            let gap = (lo - query[d]).max(0.0) + (query[d] - hi).max(0.0);
            gap * gap
        };
        let cells = column.row(row);
        let whole = cells.len() / 4 * 4;
        let mut lanes = [0.0f32; 4];
        for (d, &cell) in cells.iter().enumerate().skip(whole) {
            lanes[0] += gap_squared(d, cell);
        }
        for (d, &cell) in cells[..whole].iter().enumerate() {
            lanes[d % 4] += gap_squared(d, cell);
        }
        column.weight * ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
    }

    #[test]
    fn the_gap_table_bounds_every_row_as_the_cell_edges_do() {
        let mut state = 0x9e37_79b9u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let mut uniform =
            |lo: f32, hi: f32| lo + (hi - lo) * (next() >> 8) as f32 / (1 << 24) as f32;
        // Every tail length, from a one-dimension word to 4 × 4 + 1.
        for dims in 1..=17usize {
            // Dimension 0 is constant in the trained column: all its edges
            // repeat.
            let mut flat: Vec<f32> = (0..dims * 40).map(|_| uniform(-3.0, 3.0)).collect();
            flat.iter_mut().step_by(dims).for_each(|v| *v = 0.5);
            let bits = 1 + (dims % 8) as u8;
            let mut sax = WordColumn::new(2 * dims + 1, SaxParams::new(dims, 8));
            assert_eq!(sax.word_len(), dims);
            flat.chunks_exact(dims).for_each(|row| sax.push(row));
            for column in [sax, WordColumn::trained(&flat, dims, bits)] {
                for _ in 0..20 {
                    // Per dimension: on one of its edges, an outermost one
                    // included; beyond either outermost edge; or anywhere.
                    let query: Vec<f32> = (0..dims)
                        .map(|d| match uniform(0.0, 4.0) as usize {
                            0 => column.edges[d][uniform(0.0, column.cells as f32 + 1.0) as usize],
                            1 => column.edges[d][1] - 7.0,
                            2 => column.edges[d][column.cells - 1] + 7.0,
                            _ => uniform(-4.0, 4.0),
                        })
                        .collect();
                    let gaps = column.gaps(&query);
                    for row in 0..40 {
                        assert_eq!(
                            column.bound_squared(&gaps, row).to_bits(),
                            bound_from_edges(&column, &query, row).to_bits(),
                            "{dims} dimensions, {} cells, row {row}",
                            column.cells
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_stored_bit_count_or_cell_out_of_range_is_corrupt() {
        let column = WordColumn::trained(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0], 2, 2);
        let mut s = Section::new();
        column.put(&mut s);
        let get = |bytes: &[u8]| WordColumn::get(&mut SectionReader::new(bytes), 3, 2);
        assert_eq!(get(s.as_bytes()).unwrap(), column);
        // The bit count opens the section; a row's cell closes it.
        let last = s.as_bytes().len() - 1;
        for (at, value) in [(0, 0), (0, 9), (last, 4)] {
            let mut bytes = s.as_bytes().to_vec();
            bytes[at] = value;
            let got = get(&bytes);
            assert!(
                matches!(got, Err(PersistError::Corrupt(_))),
                "byte {at} = {value}"
            );
        }
    }
}
