//! The functional contents of the NVM: a sparse map of 64-byte blocks.
//!
//! Unwritten blocks read as zero (real NVM ships zeroed; the simulator
//! does not charge for the initial state). The store also provides the
//! attacker's interface — [`SparseStore::tamper`] and
//! [`SparseStore::rollback_to`] — used by integrity tests to model the
//! threat model of §3.1 (an attacker who can read and modify NVM
//! contents between and during boot episodes).

use std::collections::hash_map::{Entry, OccupiedEntry};
use triad_sim::{AddrMap, BlockAddr, BLOCK_BYTES};

/// One 64-byte memory block.
pub type Block = [u8; BLOCK_BYTES];

const ZERO: Block = [0; BLOCK_BYTES];

/// Blocks per page of the image: one MAC group (the eight data blocks
/// whose 8-byte MACs share one MAC block). Larger pages save table
/// entries on dense images but waste memory on sparsely touched ones.
pub(crate) const PAGE_BLOCKS: u64 = 8;

/// The non-zero blocks of one image page, in one of two shapes. A page
/// with exactly one block keeps only that block, so a sparsely touched
/// page costs 64 B on the heap instead of 520 B; a page with two or
/// more keeps all eight slots. A page never holds zero blocks: it is
/// freed with its last one.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Page {
    One { slot: u8, block: Box<Block> },
    Many(Box<FullPage>),
}

/// Eight consecutive blocks; a block whose bit is clear in `resident`
/// is zero. At least two bits are set.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FullPage {
    blocks: [Block; PAGE_BLOCKS as usize],
    resident: u8,
}

impl Page {
    /// The slots holding a non-zero block, one bit each.
    fn resident(&self) -> u8 {
        match self {
            Page::One { slot, .. } => 1 << slot,
            Page::Many(p) => p.resident,
        }
    }

    /// The block in `slot`, if it is non-zero.
    fn get(&self, slot: usize) -> Option<&Block> {
        match self {
            Page::One { slot: s, block } => (usize::from(*s) == slot).then_some(&**block),
            Page::Many(p) => (p.resident & (1 << slot) != 0).then_some(&p.blocks[slot]),
        }
    }

    /// Stores non-zero `data` in `slot`, promoting a one-block page
    /// whose block sits elsewhere. Returns whether the slot was zero.
    fn set(&mut self, slot: usize, data: Block) -> bool {
        match self {
            Page::One { slot: s, block } if usize::from(*s) == slot => {
                **block = data;
                false
            }
            Page::One { slot: s, block } => {
                let mut full = Box::new(FullPage {
                    blocks: [ZERO; PAGE_BLOCKS as usize],
                    resident: (1 << *s) | (1 << slot),
                });
                full.blocks[usize::from(*s)] = **block;
                full.blocks[slot] = data;
                *self = Page::Many(full);
                true
            }
            Page::Many(p) => {
                let bit = 1 << slot;
                let was_zero = p.resident & bit == 0;
                p.resident |= bit;
                p.blocks[slot] = data;
                was_zero
            }
        }
    }
}

/// Zeroes the slots of `mask` in an occupied page, demoting a page left
/// with one block and freeing one left with none. Returns how many
/// non-zero blocks were cleared.
fn zero_slots(mut entry: OccupiedEntry<'_, u64, Page>, mask: u8) -> usize {
    let held = entry.get().resident();
    let cleared = held & mask;
    if cleared == 0 {
        return 0;
    }
    let left = held & !mask;
    if left == 0 {
        entry.remove();
    } else if let Page::Many(p) = entry.get_mut() {
        if left.count_ones() == 1 {
            let slot = left.trailing_zeros() as usize;
            let block = Box::new(p.blocks[slot]);
            *entry.get_mut() = Page::One {
                slot: slot as u8,
                block,
            };
        } else {
            p.resident = left;
            let mut bits = cleared;
            while bits != 0 {
                p.blocks[bits.trailing_zeros() as usize] = ZERO;
                bits &= bits - 1;
            }
        }
    }
    cleared.count_ones() as usize
}

/// A sparse, functional NVM image: a hash table of 8-block pages,
/// keyed by page number, holding only pages with at least one non-zero
/// block. A page with one non-zero block keeps that block alone; a
/// write to a second slot promotes it to all eight slots, and zeroing
/// all but one block demotes it again. A read or write is one hash
/// probe and one load from the page.
///
/// Two stores compare equal exactly when every block reads the same:
/// zero blocks are never resident, a page's shape follows from its
/// block count, and a page is freed with its last non-zero block, so
/// equal contents mean equal representations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseStore {
    pages: AddrMap<u64, Page>,
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
            Some(Page::One { slot: s, block }) if usize::from(*s) == slot => **block,
            Some(Page::Many(p)) => p.blocks[slot],
            _ => ZERO,
        }
    }

    /// Writes a block.
    pub fn write(&mut self, addr: BlockAddr, data: Block) {
        let (page, slot) = locate(addr);
        match self.pages.entry(page) {
            // Keep the store sparse: zero blocks are the default.
            Entry::Occupied(entry) if data == ZERO => {
                self.resident -= zero_slots(entry, 1 << slot);
            }
            Entry::Vacant(_) if data == ZERO => {}
            Entry::Occupied(mut entry) => {
                if entry.get_mut().set(slot, data) {
                    self.resident += 1;
                }
            }
            Entry::Vacant(entry) => {
                entry.insert(Page::One {
                    slot: slot as u8,
                    block: Box::new(data),
                });
                self.resident += 1;
            }
        }
    }

    /// Zeroes the `count` blocks from `start` one page at a time: a
    /// page the range covers whole goes with one probe, and a page it
    /// covers in part keeps its other blocks. The result equals
    /// writing a zero block to each address in turn; a range past the
    /// last address stops there.
    pub fn zero_blocks(&mut self, start: BlockAddr, count: u64) {
        if count == 0 {
            return;
        }
        let (first_page, first_slot) = locate(start);
        let (last_page, last_slot) = locate(BlockAddr(start.0.saturating_add(count - 1)));
        for page in first_page..=last_page {
            let lo = if page == first_page { first_slot } else { 0 };
            let hi = if page == last_page {
                last_slot
            } else {
                PAGE_BLOCKS as usize - 1
            };
            let Entry::Occupied(entry) = self.pages.entry(page) else {
                continue;
            };
            // Bits `lo..=hi` of the page's resident mask.
            let mask = ((1u16 << (hi + 1)) - (1u16 << lo)) as u8;
            self.resident -= zero_slots(entry, mask);
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
    /// order (the page numbers are sorted first, so the order never
    /// depends on the table's layout).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &Block)> {
        let mut pages: Vec<(u64, &Page)> = self.pages.iter().map(|(n, p)| (*n, p)).collect();
        pages.sort_unstable_by_key(|(page, _)| *page);
        pages.into_iter().flat_map(|(page, p)| {
            (0..PAGE_BLOCKS).filter_map(move |slot| {
                p.get(slot as usize)
                    .map(|block| (BlockAddr(page * PAGE_BLOCKS + slot), block))
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

    /// A store with every block of `0..blocks` non-zero.
    fn dense(blocks: u64) -> SparseStore {
        let mut s = SparseStore::new();
        for a in 0..blocks {
            s.write(BlockAddr(a), [a as u8 + 1; 64]);
        }
        s
    }

    #[test]
    fn zero_blocks_clears_partial_first_and_last_pages() {
        // Pages 0..4; the range 5..27 covers page 0 from slot 5, pages
        // 1 and 2 whole, and page 3 up to slot 2.
        let mut s = dense(32);
        s.zero_blocks(BlockAddr(5), 22);
        for a in 0..32 {
            let zeroed = (5..27).contains(&a);
            assert_eq!(s.read(BlockAddr(a)) == ZERO, zeroed, "block {a}");
        }
        assert_eq!(s.resident_blocks(), 32 - 22);
        assert_eq!(s.pages.len(), 2, "pages 1 and 2 are freed");
        assert_eq!(s.read(BlockAddr(27)), [28; 64]);
    }

    #[test]
    fn zero_blocks_inside_one_page_keeps_its_neighbours() {
        let mut s = dense(8);
        s.zero_blocks(BlockAddr(2), 3);
        assert_eq!(s.resident_blocks(), 5);
        assert_eq!(s.pages.len(), 1);
        assert_eq!(s.read(BlockAddr(1)), [2; 64]);
        assert_eq!(s.read(BlockAddr(5)), [6; 64]);
        s.zero_blocks(BlockAddr(0), 8);
        assert_eq!(s.resident_blocks(), 0);
        assert!(s.pages.is_empty(), "the emptied page is freed");
    }

    #[test]
    fn zero_blocks_skips_absent_pages_and_empty_ranges() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(40), [1; 64]);
        s.zero_blocks(BlockAddr(0), 40);
        s.zero_blocks(BlockAddr(40), 0);
        assert_eq!(s.resident_blocks(), 1);
        s.zero_blocks(BlockAddr(u64::MAX - 3), 10);
        s.write(BlockAddr(u64::MAX), [9; 64]);
        s.zero_blocks(BlockAddr(u64::MAX - 1), 2);
        assert_eq!(s.resident_blocks(), 1);
        assert_eq!(s.read(BlockAddr(40)), [1; 64]);
    }

    #[test]
    fn zero_blocks_equals_zero_writes_block_by_block() {
        // Every range over a sparse three-page image with holes.
        let mut image = SparseStore::new();
        for a in [0u64, 3, 7, 8, 9, 15, 17, 22, 23] {
            image.write(BlockAddr(a), [a as u8 + 1; 64]);
        }
        for start in 0..24 {
            for count in 0..=24 - start {
                let mut paged = image.clone();
                paged.zero_blocks(BlockAddr(start), count);
                let mut blockwise = image.clone();
                for a in start..start + count {
                    blockwise.write(BlockAddr(a), ZERO);
                }
                assert_eq!(paged, blockwise, "zero {count} blocks from {start}");
                assert_eq!(paged.resident_blocks(), blockwise.resident_blocks());
                assert_eq!(paged.pages.len(), blockwise.pages.len());
            }
        }
    }

    /// The slot of page `page` when it has the one-block shape, or
    /// `None` when it has all eight.
    fn one_block_slot(s: &SparseStore, page: u64) -> Option<u8> {
        match &s.pages[&page] {
            Page::One { slot, .. } => Some(*slot),
            Page::Many(_) => None,
        }
    }

    #[test]
    fn a_page_promotes_on_its_second_block_and_demotes_on_its_last_but_one() {
        let mut s = SparseStore::new();
        s.write(BlockAddr(10), [1; 64]);
        assert_eq!(
            one_block_slot(&s, 1),
            Some(2),
            "one block keeps the small shape"
        );
        s.write(BlockAddr(10), [2; 64]);
        assert_eq!(one_block_slot(&s, 1), Some(2), "a rewrite keeps it");
        s.write(BlockAddr(13), [3; 64]);
        assert_eq!(one_block_slot(&s, 1), None, "a second slot promotes");
        assert_eq!(s.resident_blocks(), 2);
        assert_eq!(s.read(BlockAddr(10)), [2; 64]);
        assert_eq!(s.read(BlockAddr(11)), ZERO);
        assert_eq!(s.read(BlockAddr(13)), [3; 64]);
        s.write(BlockAddr(11), ZERO);
        assert_eq!(
            one_block_slot(&s, 1),
            None,
            "zeroing a zero block changes nothing"
        );
        s.write(BlockAddr(10), ZERO);
        assert_eq!(
            one_block_slot(&s, 1),
            Some(5),
            "the last block but one demotes"
        );
        assert_eq!(s.read(BlockAddr(10)), ZERO);
        assert_eq!(s.read(BlockAddr(13)), [3; 64]);
        s.write(BlockAddr(12), ZERO);
        assert_eq!(one_block_slot(&s, 1), Some(5));
        s.write(BlockAddr(13), ZERO);
        assert!(s.pages.is_empty(), "the last block frees the page");
        assert_eq!(s.resident_blocks(), 0);
    }

    #[test]
    fn zero_blocks_demotes_a_page_it_leaves_with_one_block() {
        let mut s = dense(24);
        s.zero_blocks(BlockAddr(1), 14);
        assert_eq!(one_block_slot(&s, 0), Some(0));
        assert_eq!(one_block_slot(&s, 1), Some(7));
        assert_eq!(one_block_slot(&s, 2), None, "an untouched page stays full");
        assert_eq!(s.resident_blocks(), 10);
        assert_eq!(s.read(BlockAddr(0)), [1; 64]);
        assert_eq!(s.read(BlockAddr(15)), [16; 64]);
        s.zero_blocks(BlockAddr(15), 2);
        assert!(!s.pages.contains_key(&1), "its last block frees the page");
        assert_eq!(one_block_slot(&s, 2), None);
        s.zero_blocks(BlockAddr(16), 7);
        assert_eq!(one_block_slot(&s, 2), Some(7));
        assert_eq!(s.resident_blocks(), 2);
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
