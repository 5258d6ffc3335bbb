//! Property tests (vendored `proptest`): across randomized build
//! parameters, `save → load → save` produces **byte-identical** snapshot
//! files for DSTree, iSAX2+, IMI and VA+file. Byte identity is a stronger
//! claim than answer identity — it proves the loader reconstructs *exactly*
//! the state the saver serialized, leaving no field to drift silently
//! across generations of snapshots.
//!
//! One fixed build of every zoo row pins the bytes themselves: a change to
//! a snapshot writer, or to the identity it hashes, fails
//! `zoo_snapshots_hash_to_pinned_digests` unless it moves the digest on
//! purpose.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use hydra::prelude::*;
use hydra::{Dataset, PersistentIndex};
use hydra::summarize::SaxParams;

static UNIQUE: AtomicUsize = AtomicUsize::new(0);

fn temp_pair(tag: &str) -> (PathBuf, PathBuf) {
    let id = UNIQUE.fetch_add(1, Ordering::Relaxed);
    let base = std::env::temp_dir();
    let pid = std::process::id();
    (
        base.join(format!("hydra-prop-{tag}-{pid}-{id}-a.snap")),
        base.join(format!("hydra-prop-{tag}-{pid}-{id}-b.snap")),
    )
}

/// Saves `index`, reloads it, saves the reload, and asserts the two files
/// are byte-identical. Returns nothing; panics (failing the property) on
/// any divergence.
fn assert_save_load_save_identical<T>(tag: &str, index: &T, data: &Dataset, config: &T::Config)
where
    T: PersistentIndex,
{
    let (path_a, path_b) = temp_pair(tag);
    index.save(&path_a).unwrap();
    let loaded = T::load(&path_a, data, config).unwrap();
    loaded.save(&path_b).unwrap();
    let a = std::fs::read(&path_a).unwrap();
    let b = std::fs::read(&path_b).unwrap();
    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
    assert_eq!(a, b, "{tag}: save→load→save must be byte-identical");
}

#[test]
fn zoo_snapshots_hash_to_pinned_digests() {
    // `fnv1a64` of each row's snapshot file, captured before the tree frame
    // and the shared snapshot identity existed.
    let pinned: [(&str, u64); 8] = [
        ("dstree", 0x4876725617c0d669),
        ("isax2+", 0xf1a2d7b9b30fcf67),
        // VA+file's moved once, when its cells became one `u8` each and
        // the snapshot layout entered its fingerprint.
        ("va+file", 0x65bc46db7f635b3b),
        ("srs", 0x3306c0d5fd811adb),
        // IMI's moved once, when its product quantizer became always
        // optimized (no plain-PQ tag byte, no flag in the fingerprint).
        ("imi", 0x2efd8ea38228cd34),
        ("hnsw", 0xc1272bb7a5c11d16),
        ("qalsh", 0xdd448e022a3a39d3),
        ("flann", 0xcdb83fb7077684f8),
    ];
    let data = hydra::data::random_walk(300, 32, 21);
    let (path, _) = temp_pair("zoo-digest");
    let table = hydra::zoo(StorageConfig::in_memory(), 4);
    assert_eq!(table.len(), pinned.len());
    let mut got = Vec::new();
    for (row, (kind, _)) in table.iter().zip(pinned) {
        assert_eq!(row.kind(), kind);
        row.build(&data).unwrap().save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        got.push((kind, hydra::persist::snapshot::fnv1a64(&bytes)));
    }
    std::fs::remove_file(&path).ok();
    assert_eq!(got, pinned);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn dstree_snapshots_are_byte_stable(
        n in 60usize..160,
        leaf_capacity in 8usize..40,
        initial_segments in 1usize..6,
        max_segments in 4usize..16,
        seed in 0usize..1_000,
    ) {
        let data = hydra::data::random_walk(n, 32, seed as u64);
        let config = DsTreeConfig {
            leaf_capacity,
            initial_segments,
            max_segments,
            storage: StorageConfig::in_memory(),
            histogram_samples: 500,
            seed: seed as u64 ^ 0xD5,
        };
        let index = DsTree::build(&data, config).unwrap();
        assert_save_load_save_identical("dstree", &index, &data, &config);
    }

    #[test]
    fn isax_snapshots_are_byte_stable(
        n in 60usize..160,
        leaf_capacity in 8usize..40,
        seg_choice in 0usize..3,
        max_bits in 3usize..8,
        seed in 0usize..1_000,
    ) {
        let data = hydra::data::random_walk(n, 32, seed as u64);
        let config = IsaxConfig {
            sax: SaxParams::new([4, 8, 16][seg_choice], max_bits as u8),
            leaf_capacity,
            storage: StorageConfig::in_memory(),
            histogram_samples: 500,
            seed: seed as u64 ^ 0xA5,
        };
        let index = Isax2Plus::build(&data, config).unwrap();
        assert_save_load_save_identical("isax", &index, &data, &config);
    }

    #[test]
    fn imi_snapshots_are_byte_stable(
        n in 80usize..200,
        coarse_k in 4usize..12,
        pq_choice in 0usize..3,
        pq_k in 8usize..24,
        seed in 0usize..1_000,
    ) {
        let data = hydra::data::sift_like(n, 16, seed as u64);
        let config = ImiConfig {
            coarse_k,
            pq_m: [2, 4, 8][pq_choice],
            pq_k,
            training_size: 150,
            kmeans_iters: 4,
            seed: seed as u64 ^ 0x1311,
        };
        let index = InvertedMultiIndex::build(&data, config).unwrap();
        assert_save_load_save_identical("imi", &index, &data, &config);
    }

    #[test]
    fn vafile_snapshots_are_byte_stable(
        n in 60usize..160,
        dft_coefficients in 2usize..8,
        bits in 2usize..6,
        seed in 0usize..1_000,
    ) {
        let data = hydra::data::random_walk(n, 32, seed as u64);
        let config = VaPlusFileConfig {
            dft_coefficients,
            bits_per_dim: bits as u8,
            storage: StorageConfig::in_memory(),
            histogram_samples: 500,
            seed: seed as u64 ^ 0xFA,
        };
        let index = VaPlusFile::build(&data, config).unwrap();
        assert_save_load_save_identical("vafile", &index, &data, &config);
    }
}
