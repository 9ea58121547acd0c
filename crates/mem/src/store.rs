//! The functional contents of the NVM: a sparse map of 64-byte blocks.
//!
//! Unwritten blocks read as zero (real NVM ships zeroed; the simulator
//! does not charge for the initial state). The store also provides the
//! attacker's interface — [`SparseStore::tamper`] and
//! [`SparseStore::rollback_to`] — used by integrity tests to model the
//! threat model of §3.1 (an attacker who can read and modify NVM
//! contents between and during boot episodes).

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use triad_sim::{BlockAddr, BLOCK_BYTES};

/// One 64-byte memory block.
pub type Block = [u8; BLOCK_BYTES];

const ZERO: Block = [0; BLOCK_BYTES];

/// Blocks per page of the image: one MAC group (the eight data blocks
/// whose 8-byte MACs share one MAC block). Larger pages save B-tree
/// nodes on dense images but waste memory on sparsely touched ones.
const PAGE_BLOCKS: u64 = 8;

/// Eight consecutive blocks; a block whose bit is clear in `resident`
/// is zero.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Page {
    blocks: [Block; PAGE_BLOCKS as usize],
    resident: u8,
}

/// A sparse, functional NVM image: a B-tree of 8-block pages holding
/// only pages with at least one non-zero block.
///
/// Two stores compare equal exactly when every block reads the same:
/// zero blocks are never resident and a page is freed with its last
/// non-zero block, so equal contents mean equal representations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseStore {
    pages: BTreeMap<u64, Box<Page>>,
    resident: usize,
}

/// Splits a block address into (page number, slot in page).
fn locate(addr: BlockAddr) -> (u64, usize) {
    (addr.0 / PAGE_BLOCKS, (addr.0 % PAGE_BLOCKS) as usize)
}

impl SparseStore {
    /// An empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a block; unwritten blocks are zero.
    pub fn read(&self, addr: BlockAddr) -> Block {
        let (page, slot) = locate(addr);
        match self.pages.get(&page) {
            Some(p) => p.blocks[slot],
            None => ZERO,
        }
    }

    /// Writes a block.
    pub fn write(&mut self, addr: BlockAddr, data: Block) {
        let (page, slot) = locate(addr);
        let bit = 1u8 << slot;
        if data == ZERO {
            // Keep the store sparse: zero blocks are the default.
            let Entry::Occupied(mut entry) = self.pages.entry(page) else {
                return;
            };
            let p = entry.get_mut();
            if p.resident & bit == 0 {
                return;
            }
            p.resident &= !bit;
            p.blocks[slot] = ZERO;
            self.resident -= 1;
            if p.resident == 0 {
                entry.remove();
            }
        } else {
            let p = self.pages.entry(page).or_insert_with(|| {
                Box::new(Page {
                    blocks: [ZERO; PAGE_BLOCKS as usize],
                    resident: 0,
                })
            });
            if p.resident & bit == 0 {
                p.resident |= bit;
                self.resident += 1;
            }
            p.blocks[slot] = data;
        }
    }

    /// Number of non-zero blocks resident.
    pub fn resident_blocks(&self) -> usize {
        self.resident
    }

    /// XORs `mask` into the block at `addr` — the attacker's direct
    /// tampering primitive.
    pub fn tamper(&mut self, addr: BlockAddr, mask: Block) {
        let mut b = self.read(addr);
        for (x, m) in b.iter_mut().zip(mask.iter()) {
            *x ^= m;
        }
        self.write(addr, b);
    }

    /// Replaces the block at `addr` with an arbitrary value (e.g. a
    /// captured stale version — the replay attack of §2.2).
    pub fn rollback_to(&mut self, addr: BlockAddr, old: Block) {
        self.write(addr, old);
    }

    /// Iterates over resident (non-zero) blocks in ascending address
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &Block)> {
        self.pages.iter().flat_map(|(page, p)| {
            (0..PAGE_BLOCKS)
                .filter(|slot| p.resident & (1 << slot) != 0)
                .map(move |slot| {
                    (
                        BlockAddr(page * PAGE_BLOCKS + slot),
                        &p.blocks[slot as usize],
                    )
                })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let s = SparseStore::new();
        assert_eq!(s.read(BlockAddr(99)), [0u8; 64]);
        assert_eq!(s.resident_blocks(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(5), [7; 64]);
        assert_eq!(s.read(BlockAddr(5)), [7; 64]);
        assert_eq!(s.resident_blocks(), 1);
    }

    #[test]
    fn zero_write_keeps_store_sparse() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(5), [7; 64]);
        s.write(BlockAddr(5), [0; 64]);
        assert_eq!(s.resident_blocks(), 0);
        assert_eq!(s.read(BlockAddr(5)), [0; 64]);
    }

    #[test]
    fn tamper_flips_selected_bits() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(1), [0xFF; 64]);
        let mut mask = [0u8; 64];
        mask[3] = 0x0F;
        s.tamper(BlockAddr(1), mask);
        let b = s.read(BlockAddr(1));
        assert_eq!(b[3], 0xF0);
        assert_eq!(b[4], 0xFF);
    }

    #[test]
    fn rollback_restores_old_version() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(1), [1; 64]);
        let captured = s.read(BlockAddr(1));
        s.write(BlockAddr(1), [2; 64]);
        s.rollback_to(BlockAddr(1), captured);
        assert_eq!(s.read(BlockAddr(1)), [1; 64]);
    }

    #[test]
    fn clone_is_an_independent_snapshot() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(1), [1; 64]);
        let snap = s.clone();
        s.write(BlockAddr(1), [2; 64]);
        assert_eq!(snap.read(BlockAddr(1)), [1; 64]);
        assert_eq!(s.read(BlockAddr(1)), [2; 64]);
    }

    #[test]
    fn iter_visits_resident_blocks_in_address_order() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(2), [2; 64]);
        s.write(BlockAddr(1), [1; 64]);
        s.write(BlockAddr(u64::MAX), [3; 64]);
        s.write(BlockAddr(9), [9; 64]);
        let addrs: Vec<u64> = s.iter().map(|(a, _)| a.0).collect();
        assert_eq!(addrs, [1, 2, 9, u64::MAX]);
    }
}
