//! Dataset partitioning for sharded (scale-out) search.
//!
//! A [`ShardMap`] describes how one dataset of `total` series is split into
//! `S` shards and translates between **global** ids (positions in the
//! unsharded dataset) and **local** ids (positions inside one shard). Two
//! schemes are supported:
//!
//! * [`PartitionScheme::Contiguous`] — shard `s` holds one consecutive
//!   range of the dataset; ranges differ in length by at most one series
//!   (the first `total % S` shards get the extra one). This is the layout
//!   `fig* --save-index --shards S` writes, one bootable snapshot
//!   directory per shard, because consecutive ranges keep each shard's
//!   raw-series file sequential.
//! * [`PartitionScheme::Strided`] — shard `s` holds global ids
//!   `{s, s + S, s + 2S, ...}`. Striding spreads any ordering structure in
//!   the dataset (e.g. sorted inserts) evenly across shards.
//!
//! Both maps are **stable**: they are pure functions of `(scheme, S,
//! total)`, so a saver and a later loader (or a router in front of S
//! workers) agree on every id translation by construction — nothing about
//! the mapping needs to be persisted.

use hydra_core::{Dataset, Error, Result};

/// How global ids are dealt out to shards (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionScheme {
    /// Shard `s` holds one consecutive global-id range.
    Contiguous,
    /// Shard `s` holds global ids `{s, s + S, s + 2S, ...}`.
    Strided,
}

impl PartitionScheme {
    /// A short label ("contiguous" / "strided") for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PartitionScheme::Contiguous => "contiguous",
            PartitionScheme::Strided => "strided",
        }
    }
}

/// A stable local↔global id map for one partitioning of `total` series
/// into shards.
///
/// For [`PartitionScheme::Contiguous`] the shard lengths may be arbitrary
/// (see [`ShardMap::contiguous_from_lens`] — a router derives them from
/// what each worker actually serves); [`ShardMap::new`] always produces
/// the canonical even split described in the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    scheme: PartitionScheme,
    /// Number of series per shard.
    lens: Vec<usize>,
    /// Per-shard global-id offsets (prefix sums of `lens`); only meaningful
    /// for the contiguous scheme.
    offsets: Vec<usize>,
    total: usize,
}

impl ShardMap {
    /// The canonical even split of `total` series into `num_shards` shards
    /// under `scheme`.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] if `num_shards` is zero or exceeds
    /// `total` (an empty shard cannot hold an index).
    pub fn new(scheme: PartitionScheme, num_shards: usize, total: usize) -> Result<Self> {
        if num_shards == 0 {
            return Err(Error::InvalidParameter("shard count must be positive".into()));
        }
        if num_shards > total {
            return Err(Error::InvalidParameter(format!(
                "cannot split {total} series into {num_shards} non-empty shards"
            )));
        }
        let lens: Vec<usize> = (0..num_shards)
            .map(|s| match scheme {
                PartitionScheme::Contiguous => total / num_shards + usize::from(s < total % num_shards),
                PartitionScheme::Strided => (total - s).div_ceil(num_shards),
            })
            .collect();
        Ok(Self::from_parts(scheme, lens, total))
    }

    /// A contiguous map over explicitly given shard lengths — how a router
    /// reconstructs the id map from the series counts its workers report.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] if `lens` is empty, any shard is empty,
    /// or the lengths sum past `usize::MAX` (no id map could address them).
    pub fn contiguous_from_lens(lens: &[usize]) -> Result<Self> {
        if lens.is_empty() {
            return Err(Error::InvalidParameter("shard count must be positive".into()));
        }
        if let Some(s) = lens.iter().position(|&l| l == 0) {
            return Err(Error::InvalidParameter(format!("shard {s} is empty")));
        }
        let total = lens
            .iter()
            .try_fold(0usize, |acc, &l| acc.checked_add(l))
            .ok_or_else(|| Error::InvalidParameter("shard lengths sum past usize::MAX".into()))?;
        Ok(Self::from_parts(PartitionScheme::Contiguous, lens.to_vec(), total))
    }

    fn from_parts(scheme: PartitionScheme, lens: Vec<usize>, total: usize) -> Self {
        let mut offsets = Vec::with_capacity(lens.len());
        let mut acc = 0;
        for &l in &lens {
            offsets.push(acc);
            acc += l;
        }
        debug_assert_eq!(acc, total);
        Self {
            scheme,
            lens,
            offsets,
            total,
        }
    }

    /// The partitioning scheme.
    pub fn scheme(&self) -> PartitionScheme {
        self.scheme
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.lens.len()
    }

    /// Total number of series across all shards.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of series in shard `s`.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn shard_len(&self, s: usize) -> usize {
        self.lens[s]
    }

    /// Translates a shard-local id to the global id.
    ///
    /// # Panics
    /// Panics if `shard` or `local` is out of range.
    pub fn to_global(&self, shard: usize, local: usize) -> usize {
        assert!(
            local < self.lens[shard],
            "local id {local} out of range for shard {shard} (len {})",
            self.lens[shard]
        );
        match self.scheme {
            PartitionScheme::Contiguous => self.offsets[shard] + local,
            PartitionScheme::Strided => shard + local * self.lens.len(),
        }
    }

    /// Translates a global id to its `(shard, local)` position.
    ///
    /// # Panics
    /// Panics if `global >= self.total()`.
    pub fn to_local(&self, global: usize) -> (usize, usize) {
        assert!(global < self.total, "global id {global} out of range ({})", self.total);
        match self.scheme {
            PartitionScheme::Contiguous => {
                // The last offset ≤ global names the shard.
                let shard = self.offsets.partition_point(|&o| o <= global) - 1;
                (shard, global - self.offsets[shard])
            }
            PartitionScheme::Strided => {
                let num = self.lens.len();
                (global % num, global / num)
            }
        }
    }

    /// The global ids of shard `s`, in shard-local order.
    ///
    /// # Panics
    /// Panics if `s` is out of range.
    pub fn shard_indices(&self, s: usize) -> Vec<usize> {
        (0..self.lens[s]).map(|local| self.to_global(s, local)).collect()
    }
}

/// Splits `data` into the shards of the canonical
/// [`ShardMap::new`]`(scheme, num_shards, data.len())` map, returning the
/// map and one dataset per shard (shard-local id order).
///
/// # Errors
/// [`Error::InvalidParameter`] for an unusable shard count (see
/// [`ShardMap::new`]).
pub fn partition(
    data: &Dataset,
    scheme: PartitionScheme,
    num_shards: usize,
) -> Result<(ShardMap, Vec<Dataset>)> {
    let map = ShardMap::new(scheme, num_shards, data.len())?;
    let shards = (0..num_shards)
        .map(|s| data.subset(&map.shard_indices(s)))
        .collect::<Result<Vec<_>>>()?;
    Ok((map, shards))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_walk;

    #[test]
    fn canonical_splits_cover_every_id_exactly_once() {
        for scheme in [PartitionScheme::Contiguous, PartitionScheme::Strided] {
            for total in [1usize, 2, 7, 10, 100] {
                for shards in 1..=total.min(6) {
                    let map = ShardMap::new(scheme, shards, total).unwrap();
                    assert_eq!(map.num_shards(), shards);
                    assert_eq!(map.total(), total);
                    assert_eq!((0..shards).map(|s| map.shard_len(s)).sum::<usize>(), total);
                    // Round trip every global id through the map.
                    let mut seen = vec![false; total];
                    for s in 0..shards {
                        for (local, global) in map.shard_indices(s).into_iter().enumerate() {
                            assert_eq!(map.to_global(s, local), global);
                            assert_eq!(map.to_local(global), (s, local));
                            assert!(!seen[global], "{scheme:?}: id {global} dealt twice");
                            seen[global] = true;
                        }
                    }
                    assert!(seen.into_iter().all(|b| b), "{scheme:?}: some id never dealt");
                    // Shard lengths differ by at most one.
                    let lens: Vec<usize> = (0..shards).map(|s| map.shard_len(s)).collect();
                    let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                    assert!(max - min <= 1, "{scheme:?}: uneven split {lens:?}");
                }
            }
        }
    }

    #[test]
    fn contiguous_shards_are_consecutive_and_strided_shards_interleave() {
        let contiguous = ShardMap::new(PartitionScheme::Contiguous, 3, 10).unwrap();
        assert_eq!(contiguous.shard_indices(0), vec![0, 1, 2, 3]);
        assert_eq!(contiguous.shard_indices(1), vec![4, 5, 6]);
        assert_eq!(contiguous.shard_indices(2), vec![7, 8, 9]);
        let strided = ShardMap::new(PartitionScheme::Strided, 3, 10).unwrap();
        assert_eq!(strided.shard_indices(0), vec![0, 3, 6, 9]);
        assert_eq!(strided.shard_indices(1), vec![1, 4, 7]);
        assert_eq!(strided.shard_indices(2), vec![2, 5, 8]);
    }

    #[test]
    fn degenerate_shard_counts_are_rejected() {
        assert!(ShardMap::new(PartitionScheme::Contiguous, 0, 10).is_err());
        assert!(ShardMap::new(PartitionScheme::Strided, 11, 10).is_err());
        assert!(ShardMap::contiguous_from_lens(&[]).is_err());
        assert!(ShardMap::contiguous_from_lens(&[3, 0, 2]).is_err());
    }

    #[test]
    fn contiguous_from_lens_round_trips_the_canonical_split() {
        let map = ShardMap::new(PartitionScheme::Contiguous, 4, 13).unwrap();
        let lens: Vec<usize> = (0..4).map(|s| map.shard_len(s)).collect();
        assert_eq!(ShardMap::contiguous_from_lens(&lens).unwrap(), map);
        // Arbitrary lengths are fine (a router trusts its workers' sizes).
        let uneven = ShardMap::contiguous_from_lens(&[7, 1, 2]).unwrap();
        assert_eq!(uneven.to_global(1, 0), 7);
        assert_eq!(uneven.to_local(9), (2, 1));
    }

    #[test]
    fn lengths_that_sum_past_usize_max_are_rejected() {
        // Worker-reported counts: a sum that wraps would map shard 1's
        // local 0 to global usize::MAX under a total of 0.
        let err = ShardMap::contiguous_from_lens(&[usize::MAX, 1]).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)), "{err:?}");
    }

    #[test]
    fn partition_reassembles_to_the_original_dataset() {
        let data = random_walk(23, 8, 42);
        for scheme in [PartitionScheme::Contiguous, PartitionScheme::Strided] {
            let (map, shards) = partition(&data, scheme, 4).unwrap();
            assert_eq!(shards.len(), 4);
            for (s, shard) in shards.iter().enumerate() {
                assert_eq!(shard.len(), map.shard_len(s));
                assert_eq!(shard.series_len(), data.series_len());
                for local in 0..shard.len() {
                    assert_eq!(
                        shard.series(local),
                        data.series(map.to_global(s, local)),
                        "{scheme:?}: shard {s} local {local} holds the wrong series"
                    );
                }
            }
        }
        assert!(partition(&data, PartitionScheme::Contiguous, 24).is_err());
    }
}
