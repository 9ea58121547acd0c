//! Micro-benchmarks of the Bonsai-Merkle-tree machinery: full and
//! partial rebuilds of a region tree, by the reference rebuild and
//! with the region's fresh tree, node hashing and slot updates.

use std::hint::black_box;
use triad_bench::timing::{bench, bench_batched, header};
use triad_crypto::mac::MacEngine;
use triad_mem::store::SparseStore;
use triad_meta::bmt::{self, FreshTree, NodeBuf, NodeId};
use triad_meta::layout::{MemoryMap, RegionKind};
use triad_sim::config::SystemConfig;

fn main() {
    header("bmt");
    let engine = MacEngine::new([5; 16]);
    let map = MemoryMap::new(&SystemConfig::tiny());

    let id = NodeId {
        region: RegionKind::Persistent,
        level: 1,
        index: 42,
    };
    bench("node_hash", || {
        bmt::node_hash(&engine, black_box(id), black_box(&[7u8; 64]))
    });

    bench("leaf_hash_zero_sentinel", || {
        bmt::leaf_hash(&engine, RegionKind::Persistent, 1, black_box(&[0u8; 64]))
    });

    let mut node = NodeBuf::zeroed();
    bench("node_slot_update", || {
        node.set_slot(black_box(3), triad_crypto::Mac64(0xABCD));
        node.slot(3)
    });

    let layout = map.persistent().clone();
    for from_level in [0u8, 1, 2] {
        bench_batched(
            &format!("rebuild/from_level/{from_level}"),
            SparseStore::new,
            |mut store| bmt::rebuild_from_level(&mut store, &layout, &engine, from_level),
        );
    }

    // The same rebuilds of an all-zero image with the fresh tree: every
    // node is still fresh, so none is hashed.
    let fresh = FreshTree::new(&layout, &engine);
    for from_level in [0u8, 1, 2] {
        bench_batched(
            &format!("rebuild/fresh_tree/{from_level}"),
            SparseStore::new,
            |mut store| fresh.rebuild_from_level(&mut store, &layout, &engine, from_level),
        );
    }
    bench("fresh_tree/new", || {
        FreshTree::new(black_box(&layout), &engine)
    });
}
