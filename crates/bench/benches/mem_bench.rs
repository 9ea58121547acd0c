//! Micro-benchmarks of the per-access address maps of the NVM model:
//! image reads and writes and wear recording, each one lookup by
//! address in a 32 768-page image visited in a seeded shuffled order
//! (so neither the table nor the host caches see a sequential walk).

use std::hint::black_box;
use triad_bench::timing::{bench, header};
use triad_mem::{SparseStore, WearTracker};
use triad_sim::rng::SplitMix64;
use triad_sim::BlockAddr;

/// Image pages touched (8 blocks each): 16 MiB of simulated NVM.
const PAGES: u64 = 32_768;

/// One block address in every page, in a seeded Fisher–Yates order.
fn shuffled_blocks() -> Vec<BlockAddr> {
    let mut addrs: Vec<BlockAddr> = (0..PAGES).map(|p| BlockAddr(p * 8 + p % 8)).collect();
    let mut rng = SplitMix64::new(0x3E3_B3C4);
    for i in (1..addrs.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        addrs.swap(i, j);
    }
    addrs
}

fn main() {
    header("mem");
    let addrs = shuffled_blocks();
    let mut store = SparseStore::new();
    for a in &addrs {
        store.write(*a, [1; 64]);
    }
    let mut wear = WearTracker::default();
    for a in &addrs {
        wear.record(*a);
    }

    let mut next = addrs.iter().cycle();
    bench("sparse_store_read", || {
        let a = *next.next().expect("cycle never ends");
        store.read(black_box(a))[0]
    });

    let mut next = addrs.iter().cycle();
    let mut fill = 0u8;
    bench("sparse_store_write", || {
        let a = *next.next().expect("cycle never ends");
        fill = fill.wrapping_add(1) | 1;
        store.write(black_box(a), [fill; 64]);
    });

    let mut next = addrs.iter().cycle();
    bench("wear_record", || {
        let a = *next.next().expect("cycle never ends");
        wear.record(black_box(a));
    });
    black_box(wear.max_writes());
}
