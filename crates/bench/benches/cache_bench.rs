//! Micro-benchmarks of one cache lookup on three geometries: the
//! `tiny()` L3 (64 sets × 8 ways), the `tiny()` counter and
//! Merkle-tree caches (16 × 4), and the `isca19()` L3 (2 048 × 64),
//! whose every miss scans a 64-way set. Each line holds a 64-byte
//! value, as the L3's plaintext lines do. `hit` reads a resident line
//! of a full cache, visiting every line in a seeded shuffled order;
//! `miss_evict` fills a block never seen before, so each call misses
//! and evicts its set's least recently used line.

use std::hint::black_box;
use triad_bench::timing::{bench, header};
use triad_cache::Cache;
use triad_sim::config::{CacheConfig, SystemConfig};
use triad_sim::rng::SplitMix64;
use triad_sim::BlockAddr;

/// Times a resident hit and an evicting miss on one geometry.
fn bench_geometry(label: &str, config: CacheConfig) {
    let lines = (config.sets() * config.ways) as u64;
    let mut cache: Cache<[u8; 64]> = Cache::new(label, config);
    for b in 0..lines {
        cache.fill(BlockAddr(b), false, [1; 64]);
    }

    let mut resident: Vec<BlockAddr> = (0..lines).map(BlockAddr).collect();
    let mut rng = SplitMix64::new(0xCAC4_E5E7);
    for i in (1..resident.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        resident.swap(i, j);
    }
    let mut next = resident.iter().cycle();
    bench(&format!("cache_hit/{label}"), || {
        let b = *next.next().expect("cycle never ends");
        cache.hit(black_box(b), false).map(|v| v[0])
    });

    let mut fresh = lines;
    bench(&format!("cache_miss_evict/{label}"), || {
        fresh += 1;
        let out = cache.fill(black_box(BlockAddr(fresh)), false, [2; 64]);
        assert!(!out.hit);
        out.victim.map(|v| v.addr)
    });
}

fn main() {
    header("cache");
    let tiny = SystemConfig::tiny();
    bench_geometry("l3_tiny_64x8", tiny.l3);
    bench_geometry("meta_tiny_16x4", tiny.security.counter_cache);
    bench_geometry("l3_isca19_2048x64", SystemConfig::isca19().l3);
}
