//! Page re-encryption must leave every tag of the re-encrypted page
//! current in NVM.
//!
//! When a minor counter overflows, the write path re-encrypts the
//! page's other blocks under the new major counter and retags them in
//! their MAC blocks. The written block shares its MAC block with seven
//! siblings, so the MAC block it persists must be the retagged one: a
//! copy captured before the re-encryption would put seven stale tags
//! into NVM, and after a crash those siblings would fail their MAC
//! check (or, with a stale zero tag, silently read back as zeros).

use triad_core::{
    CounterPersistence, PersistScheme, SecureMemory, SecureMemoryBuilder, WriteBatch,
};
use triad_crypto::counter::MINOR_MAX;
use triad_sim::{BlockAddr, BLOCK_BYTES};

/// A block image that names its block and the write that produced it.
fn payload(block: BlockAddr, write: u64) -> [u8; BLOCK_BYTES] {
    let mut data = [0u8; BLOCK_BYTES];
    data[..8].copy_from_slice(&block.0.to_le_bytes());
    data[8..16].copy_from_slice(&write.to_le_bytes());
    data
}

/// Writes the seven siblings of the last block of a MAC group once,
/// drives that block's minor counter to `MINOR_MAX`, then makes the
/// overflowing write the last write into the group — inside a
/// `persist_batch` or as a plain `persist_block`. Crashes, recovers
/// and reads every block of the group back.
fn overflow_on_last_write(scheme: PersistScheme, batched: bool) {
    let mut mem: SecureMemory = SecureMemoryBuilder::new()
        .scheme(scheme)
        .counter_persistence(CounterPersistence::Strict)
        .key_seed(7)
        .build()
        .unwrap();
    // MAC group 1 of the persistent region's third page.
    let first = BlockAddr(mem.persistent_region().start().block().0 + 2 * 64 + 8);
    let group: Vec<BlockAddr> = (0..8).map(|i| BlockAddr(first.0 + i)).collect();
    let (siblings, last) = (&group[..7], group[7]);
    let mut t = mem.now();
    for &b in siblings {
        t = mem.persist_block(b, payload(b, 0), t).unwrap();
    }
    for w in 0..u64::from(MINOR_MAX) {
        t = mem.persist_block(last, payload(last, w), t).unwrap();
    }
    assert_eq!(mem.stats().page_reencryptions, 0);
    let final_write = payload(last, u64::from(MINOR_MAX));
    if batched {
        let mut batch = WriteBatch::new();
        batch.push(last, final_write);
        mem.persist_batch(&batch, t).unwrap();
    } else {
        mem.persist_block(last, final_write, t).unwrap();
    }
    assert_eq!(
        mem.stats().page_reencryptions,
        1,
        "the last write must overflow"
    );

    mem.crash();
    mem.recover().unwrap();
    for &b in siblings {
        let got = mem.read(b.base()).unwrap_or_else(|e| {
            panic!("{scheme:?} batched={batched}: sibling {b} after recovery: {e:?}")
        });
        assert_eq!(
            got,
            payload(b, 0),
            "{scheme:?} batched={batched}: sibling {b}"
        );
    }
    assert_eq!(mem.read(last.base()).unwrap(), final_write);
}

const SCHEMES: [PersistScheme; 4] = [
    PersistScheme::TriadNvm { n: 1 },
    PersistScheme::TriadNvm { n: 2 },
    PersistScheme::TriadNvm { n: 3 },
    PersistScheme::Strict,
];

#[test]
fn batched_overflow_persists_the_retagged_mac_block() {
    for scheme in SCHEMES {
        overflow_on_last_write(scheme, true);
    }
}

#[test]
fn scalar_overflow_persists_the_retagged_mac_block() {
    for scheme in SCHEMES {
        overflow_on_last_write(scheme, false);
    }
}

/// An overflow inside a batch re-tags the MAC block an earlier member
/// already staged; if the Merkle-tree cache evicts that block before
/// the re-encryption persists its touched MAC blocks, the eviction's
/// direct NVM write is the only copy of the new tags, and the open
/// batch must take it over (`batch_refresh`) or its commit writes the
/// stale staged copy back over it.
#[test]
fn batched_overflow_keeps_an_evicted_retagged_mac_block() {
    let mut config = triad_sim::SystemConfig::tiny();
    // Two lines, one set: re-tagging a page's eight MAC blocks in
    // order evicts the first one long before the page is done.
    config.security.mt_cache = triad_sim::config::CacheConfig::new(2 * BLOCK_BYTES, 2, 3);
    let mut mem: SecureMemory = SecureMemoryBuilder::new()
        .config(config)
        .scheme(PersistScheme::TriadNvm { n: 2 })
        .counter_persistence(CounterPersistence::Strict)
        .key_seed(7)
        .build()
        .unwrap();
    // The persistent region's third page: b1 in MAC group 0, b2 in
    // group 7, both under one counter block.
    let first = BlockAddr(mem.persistent_region().start().block().0 + 2 * 64);
    let page: Vec<BlockAddr> = (0..64).map(|i| BlockAddr(first.0 + i)).collect();
    let (b1, b2) = (page[3], page[60]);
    let mut t = mem.now();
    for &b in &page {
        t = mem.persist_block(b, payload(b, 0), t).unwrap();
    }
    // b2's minor counter ends at its last value.
    for w in 1..u64::from(MINOR_MAX) {
        t = mem.persist_block(b2, payload(b2, w), t).unwrap();
    }
    assert_eq!(mem.stats().page_reencryptions, 0);
    let evictions_before = mem.stats().mac_writes_evict;

    let mut batch = WriteBatch::new();
    batch.push(b1, payload(b1, 1));
    batch.push(b2, payload(b2, u64::from(MINOR_MAX)));
    mem.persist_batch(&batch, t).unwrap();
    assert_eq!(mem.stats().page_reencryptions, 1, "b2 must overflow");
    assert!(
        mem.stats().mac_writes_evict > evictions_before,
        "the re-encryption must evict re-tagged MAC blocks"
    );

    let expect = |b: BlockAddr| match b {
        _ if b == b1 => payload(b1, 1),
        _ if b == b2 => payload(b2, u64::from(MINOR_MAX)),
        _ => payload(b, 0),
    };
    for &b in &page {
        let got = mem
            .read(b.base())
            .unwrap_or_else(|e| panic!("block {b} after the batch: {e:?}"));
        assert_eq!(got, expect(b), "block {b} after the batch");
    }
    mem.crash();
    mem.recover().unwrap();
    for &b in &page {
        let got = mem
            .read(b.base())
            .unwrap_or_else(|e| panic!("block {b} after recovery: {e:?}"));
        assert_eq!(got, expect(b), "block {b} after recovery");
    }
}
