//! Micro-benchmarks of the secure memory controller's hot paths:
//! loads, plain stores, persists under each persistence scheme, and
//! one 64-member batched persist (whose staging must stay linear in
//! the batch size).

use std::hint::black_box;
use triad_bench::timing::{bench, header};
use triad_core::{PersistScheme, SecureMemory, SecureMemoryBuilder};
use triad_sim::{BlockAddr, PhysAddr};

fn engine(scheme: PersistScheme) -> SecureMemory {
    SecureMemoryBuilder::new().scheme(scheme).build().unwrap()
}

fn main() {
    header("secure_path");
    {
        let mut m = engine(PersistScheme::triad_nvm(1));
        let p = m.persistent_region().start();
        m.write(p, &[1u8; 64]).unwrap();
        bench("load_cached_block", || m.read(black_box(p)).unwrap());
    }

    {
        // Loads that miss on chip: a persisted working set of 16 blocks
        // in every page of the persistent region (several times the
        // 32 KiB L3), visited page by page, so each load misses the L3
        // and fetches and verifies its counter and MAC.
        let mut m = engine(PersistScheme::triad_nvm(1));
        let p = m.persistent_region().start();
        let pages = m.persistent_region().len_bytes() / 4096;
        let addr = |j: u64| PhysAddr(p.0 + (j % pages) * 4096 + (j / pages % 16) * 64);
        for j in 0..pages * 16 {
            m.write(addr(j), &j.to_le_bytes()).unwrap();
            m.persist(addr(j)).unwrap();
        }
        let before = m.stats();
        let mut j = 0u64;
        bench("load_uncached_block", || {
            let data = m.read(black_box(addr(j))).unwrap();
            j += 1;
            data
        });
        let after = m.stats();
        let loads = after.loads - before.loads;
        assert_eq!(
            after.l3_load_hits, before.l3_load_hits,
            "an L3 hit was timed"
        );
        assert_eq!(after.counter_reads - before.counter_reads, loads);
        assert_eq!(after.mac_reads - before.mac_reads, loads);
    }

    {
        let mut m = engine(PersistScheme::triad_nvm(1));
        let np = m.non_persistent_region().start();
        let mut i = 0u64;
        bench("store_full_block", || {
            // Rotate over a small window so the L3 absorbs it.
            let addr = PhysAddr(np.0 + (i % 256) * 64);
            i += 1;
            m.write(black_box(addr), &[2u8; 64]).unwrap()
        });
    }

    for scheme in [
        PersistScheme::triad_nvm(1),
        PersistScheme::triad_nvm(2),
        PersistScheme::triad_nvm(3),
        PersistScheme::Strict,
    ] {
        let mut m = engine(scheme);
        let p = m.persistent_region().start();
        let mut i = 0u64;
        bench(&format!("persist_block/{scheme}"), || {
            let addr = PhysAddr(p.0 + (i % 512) * 64);
            i += 1;
            m.write(addr, &i.to_le_bytes()).unwrap();
            m.persist(black_box(addr)).unwrap();
        });
    }

    {
        // One 64-member batch per iteration on a warm engine, rotating
        // over 512 blocks that a warm-up batch has already persisted.
        let mut m = engine(PersistScheme::triad_nvm(2));
        let base = m.persistent_region().start().block();
        let block = |i: u64| BlockAddr(base.0 + i % 512);
        let warm: Vec<_> = (0..512).map(|i| (block(i), [1u8; 64])).collect();
        m.apply_batch(&warm).unwrap();
        let mut round = 0u64;
        bench("persist_batch_64", || {
            let batch: Vec<_> = (0..64)
                .map(|j| (block(round * 64 + j), [(round % 255) as u8 + 1; 64]))
                .collect();
            round += 1;
            m.apply_batch(black_box(&batch)).unwrap();
        });
    }
}
