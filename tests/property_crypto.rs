//! Property-based tests of the cryptographic and metadata substrates.

use triad_nvm::crypto::aes::Aes128;
use triad_nvm::crypto::counter::{SplitCounterBlock, MINOR_MAX};
use triad_nvm::crypto::ctr::{decrypt_block, encrypt_block, Iv};
use triad_nvm::crypto::mac::MacEngine;
use triad_nvm::crypto::siphash::SipHash24;
use triad_nvm::mem::SparseStore;
use triad_nvm::meta::bmt::{self, BmtGeometry, FreshTree, NodeBuf};
use triad_nvm::meta::layout::{MemoryMap, RegionKind, RegionLayout};
use triad_nvm::sim::config::SystemConfig;
use triad_nvm::sim::prop::{check, Config};
use triad_nvm::sim::BlockAddr;

macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

#[test]
fn aes_round_trips_any_block_any_key() {
    check(
        "aes_round_trips_any_block_any_key",
        Config::default(),
        |rng| {
            let mut key = [0u8; 16];
            let mut block = [0u8; 16];
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut block);
            let cipher = Aes128::new(&key);
            ensure!(
                cipher.decrypt_block(cipher.encrypt_block(block)) == block,
                "round trip failed for key {key:?}, block {block:?}"
            );
            Ok(())
        },
    );
}

#[test]
fn ctr_mode_is_an_involution() {
    check("ctr_mode_is_an_involution", Config::default(), |rng| {
        let mut key = [0u8; 16];
        let mut data = [0u8; 64];
        rng.fill_bytes(&mut key);
        rng.fill_bytes(&mut data);
        let page = rng.gen_range(0..1 << 40);
        let offset = rng.gen_range(0..64) as u8;
        let major = rng.next_u64();
        let minor = rng.gen_range(0..128) as u8;
        let session = rng.next_u32();
        let cipher = Aes128::new(&key);
        let iv = Iv::new(page, offset, major, minor, session);
        let ct = encrypt_block(&cipher, &iv, &data);
        ensure!(
            decrypt_block(&cipher, &iv, &ct) == data,
            "CTR not an involution for iv {iv:?}"
        );
        Ok(())
    });
}

#[test]
fn siphash_hash_words_matches_hash_of_their_bytes() {
    check(
        "siphash_hash_words_matches_hash_of_their_bytes",
        Config::default(),
        |rng| {
            let h = SipHash24::from_halves(rng.next_u64(), rng.next_u64());
            // 32 words is 256 bytes: the length byte wraps past it.
            let n = rng.gen_range_inclusive(0..=40);
            let words: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            ensure!(
                h.hash_words(&words) == h.hash(&bytes),
                "hash_words diverged from hash over {n} words"
            );
            Ok(())
        },
    );
}

/// The split-counter codec's reference: a major counter plus 64
/// unpacked minors, with the overflow rule, and the bit-serial pack and
/// unpack of the 64-byte memory layout (major little-endian in bytes
/// 0..8, minor `i` in bits `7i..7i + 7` of bytes 8..64).
#[derive(Clone, Copy)]
struct UnpackedCounters {
    major: u64,
    minors: [u8; 64],
}

impl UnpackedCounters {
    fn increment(&mut self, index: usize) {
        if self.minors[index] == MINOR_MAX {
            self.major += 1;
            self.minors = [0; 64];
            self.minors[index] = 1;
        } else {
            self.minors[index] += 1;
        }
    }

    fn pack(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        let mut bit = 0usize;
        for &m in &self.minors {
            let byte = 8 + bit / 8;
            let off = bit % 8;
            out[byte] |= m << off;
            if off > 1 {
                out[byte + 1] |= m >> (8 - off);
            }
            bit += 7;
        }
        out
    }

    fn unpack(bytes: &[u8; 64]) -> Self {
        let major = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let mut minors = [0u8; 64];
        let mut bit = 0usize;
        for m in &mut minors {
            let byte = 8 + bit / 8;
            let off = bit % 8;
            let mut v = (bytes[byte] >> off) as u16;
            if off > 1 {
                v |= (bytes[byte + 1] as u16) << (8 - off);
            }
            *m = (v & 0x7f) as u8;
            bit += 7;
        }
        UnpackedCounters { major, minors }
    }

    /// Compares `cb` field by field with the model.
    fn check(&self, cb: &SplitCounterBlock, what: &str) -> Result<(), String> {
        ensure!(
            cb.major() == self.major,
            "{what}: major {} != model {}",
            cb.major(),
            self.major
        );
        for i in 0..64 {
            ensure!(
                cb.minor(i) == self.minors[i],
                "{what}: minor {i} is {} != model {}",
                cb.minor(i),
                self.minors[i]
            );
        }
        Ok(())
    }
}

#[test]
fn split_counter_pack_unpack_round_trips() {
    check(
        "split_counter_pack_unpack_round_trips",
        Config::default(),
        |rng| {
            // Increments: the in-place fields track the unpacked model,
            // overflow included, and the block's bytes are its packing.
            // A few hot slots reach MINOR_MAX and overflow the page.
            let n = rng.gen_range(0..600);
            let hot = rng.gen_range(0..64) as usize;
            let mut cb = SplitCounterBlock::new();
            let mut model = UnpackedCounters {
                major: 0,
                minors: [0; 64],
            };
            for step in 0..n {
                let slot = if rng.gen_bool(0.5) {
                    hot
                } else {
                    rng.gen_range(0..64) as usize
                };
                cb.increment(slot);
                model.increment(slot);
                model.check(&cb, &format!("after {} increments", step + 1))?;
            }
            ensure!(
                cb.to_bytes() == model.pack(),
                "to_bytes diverged from the reference packing after {n} increments"
            );
            ensure!(
                SplitCounterBlock::from_bytes(&model.pack()) == cb,
                "from_bytes of the reference packing diverged after {n} increments"
            );

            // Arbitrary images: every 64-byte image is a block, it
            // round-trips, and each field is the reference unpack.
            let mut image = [0u8; 64];
            rng.fill_bytes(&mut image);
            let cb = SplitCounterBlock::from_bytes(&image);
            ensure!(cb.to_bytes() == image, "image {image:?} did not round-trip");
            let model = UnpackedCounters::unpack(&image);
            model.check(&cb, &format!("image {image:?}"))?;
            ensure!(model.pack() == image, "reference pack/unpack disagree");
            Ok(())
        },
    );
}

#[test]
fn split_counter_never_reuses_pairs() {
    check(
        "split_counter_never_reuses_pairs",
        Config::default(),
        |rng| {
            let slot = rng.gen_range(0..64) as usize;
            let rounds = rng.gen_range(1..300);
            let mut cb = SplitCounterBlock::new();
            let mut seen = std::collections::HashSet::new();
            seen.insert((cb.major(), cb.minor(slot)));
            for _ in 0..rounds {
                cb.increment(slot);
                ensure!(
                    seen.insert((cb.major(), cb.minor(slot))),
                    "pair reused after increment on slot {slot}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn minor_counters_stay_in_range() {
    check("minor_counters_stay_in_range", Config::default(), |rng| {
        let n = rng.gen_range(0..500);
        let mut cb = SplitCounterBlock::new();
        for _ in 0..n {
            cb.increment(rng.gen_range(0..64) as usize);
        }
        for s in 0..64 {
            ensure!(cb.minor(s) <= MINOR_MAX, "slot {s} overflowed MINOR_MAX");
        }
        Ok(())
    });
}

#[test]
fn macs_differ_when_any_input_differs() {
    check(
        "macs_differ_when_any_input_differs",
        Config::default(),
        |rng| {
            let mut key = [0u8; 16];
            let mut a = [0u8; 64];
            let mut b = [0u8; 64];
            rng.fill_bytes(&mut key);
            rng.fill_bytes(&mut a);
            rng.fill_bytes(&mut b);
            if a == b {
                // 2^-512 odds; treat as a discarded case.
                return Ok(());
            }
            let engine = MacEngine::new(key);
            let iv = Iv::default();
            ensure!(
                engine.data_mac(0, &a, &iv) != engine.data_mac(0, &b, &iv),
                "distinct inputs collided under key {key:?}"
            );
            Ok(())
        },
    );
}

#[test]
fn geometry_levels_shrink_by_arity() {
    check(
        "geometry_levels_shrink_by_arity",
        Config::default(),
        |rng| {
            let leaves = rng.gen_range(1..1_000_000);
            let arity = 2u64.pow(rng.gen_range(1..4) as u32);
            let g = BmtGeometry::new(leaves, arity);
            ensure!(g.nodes_at_level(0) == leaves, "level 0 width");
            ensure!(g.nodes_at_level(g.root_level()) == 1, "root width");
            for level in 0..g.root_level() {
                let here = g.nodes_at_level(level);
                let above = g.nodes_at_level(level + 1);
                ensure!(
                    above == here.div_ceil(arity).max(1),
                    "level {level}: {above} vs {here}/{arity}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn every_leaf_has_a_parent_slot() {
    check("every_leaf_has_a_parent_slot", Config::default(), |rng| {
        let leaves = rng.gen_range(1..100_000);
        let index = rng.gen_range(0..leaves);
        let g = BmtGeometry::new(leaves, 8);
        let (pl, pi) = g.parent(0, index);
        ensure!(pl == 1, "parent of a leaf must be on level 1");
        ensure!(pi < g.nodes_at_level(1), "parent index out of range");
        ensure!(g.child_slot(index) < 8, "child slot out of range");
        Ok(())
    });
}

#[test]
fn layout_roles_partition_every_block() {
    check(
        "layout_roles_partition_every_block",
        Config::default(),
        |rng| {
            let region_blocks = rng.gen_range(1000..100_000);
            let layout = RegionLayout::new(RegionKind::Persistent, BlockAddr(0), region_blocks, 8);
            // Data + metadata + slack must tile the region without overlap:
            // walk a sample of blocks and check role ordering.
            let mut last_data = None;
            for b in (0..region_blocks).step_by(97) {
                let role = layout.role_of(BlockAddr(b));
                if b < layout.data_blocks {
                    ensure!(
                        role == triad_nvm::meta::layout::BlockRole::Data,
                        "block {b} below data_blocks is not Data"
                    );
                    last_data = Some(b);
                }
            }
            if let Some(d) = last_data {
                ensure!(d < layout.counter_start.0, "data range overlaps counters");
            }
            Ok(())
        },
    );
}

#[test]
fn rebuild_root_is_level_independent() {
    check(
        "rebuild_root_is_level_independent",
        Config::default(),
        |rng| {
            // Any counter contents: the root computed from level 0 must
            // equal the root computed from level 1 after level 1 was
            // itself rebuilt from level 0.
            let map = triad_nvm::meta::layout::MemoryMap::new(
                &triad_nvm::sim::config::SystemConfig::tiny(),
            );
            let layout = map.persistent();
            let engine = MacEngine::new([9; 16]);
            let mut store = triad_nvm::mem::SparseStore::new();
            let touches = rng.gen_range(0..20);
            for _ in 0..touches {
                let leaf = rng.gen_range(0..224);
                let mut block = [0u8; 64];
                block[9] = rng.next_u32() as u8;
                store.write(layout.counter_start + leaf % layout.counter_blocks, block);
            }
            let full = bmt::rebuild_from_level(&mut store, layout, &engine, 0);
            let partial = bmt::rebuild_from_level(&mut store, layout, &engine, 1);
            ensure!(full.root == partial.root, "roots diverged across levels");
            Ok(())
        },
    );
}

/// The fresh-tree rebuild against the reference rebuild it shortcuts:
/// from every level of both regions, on images holding nodes left
/// fresh, nodes written by a rebuild over written counters, nodes and
/// counters tampered, and one written node of each stored level put
/// back to its fresh image (all zero at level 1), it returns the same
/// outcome and leaves the same image bytes. Over an all-zero region
/// the fresh tree is what the reference rebuild from level 0 writes.
#[test]
fn fresh_tree_rebuild_matches_the_reference() {
    check(
        "fresh_tree_rebuild_matches_the_reference",
        Config::default(),
        |rng| {
            let map = MemoryMap::new(&SystemConfig::tiny());
            let mut key = [0u8; 16];
            rng.fill_bytes(&mut key);
            let engine = MacEngine::new(key);
            for layout in [map.non_persistent(), map.persistent()] {
                let kind = layout.kind;
                let geom = &layout.geometry;
                let fresh = FreshTree::new(layout, &engine);

                let mut built = SparseStore::new();
                let reference = bmt::rebuild_from_level(&mut built, layout, &engine, 0);
                let mut installed = SparseStore::new();
                ensure!(
                    fresh.reset(&mut installed, layout) == reference.root,
                    "{kind}: fresh root differs from the all-zero rebuild's"
                );
                ensure!(
                    installed == built,
                    "{kind}: fresh image differs from the all-zero rebuild's"
                );

                let mut image = SparseStore::new();
                for _ in 0..rng.gen_range(0..24) {
                    let leaf = rng.below(layout.counter_blocks);
                    let mut block = [0u8; 64];
                    block[rng.gen_range(0..64) as usize] = 1 + rng.below(255) as u8;
                    image.write(layout.counter_start + leaf, block);
                }
                bmt::rebuild_from_level(&mut image, layout, &engine, 0);
                let stored_addr = |level: u8, index: u64| {
                    if level == 0 {
                        layout.counter_start + index
                    } else {
                        layout.bmt_node_addr(level, index).expect("stored node")
                    }
                };
                for _ in 0..rng.gen_range(0..4) {
                    let level = rng.below(u64::from(geom.root_level())) as u8;
                    let index = rng.below(geom.nodes_at_level(level));
                    let mut mask = [0u8; 64];
                    mask[rng.gen_range(0..64) as usize] = 1 + rng.below(255) as u8;
                    image.tamper(stored_addr(level, index), mask);
                }
                for level in 1..geom.root_level() {
                    let written: Vec<u64> = (0..geom.nodes_at_level(level))
                        .filter(|&i| image.read(stored_addr(level, i)) != fresh.node(level, i).0)
                        .collect();
                    if !written.is_empty() && rng.below(2) == 0 {
                        let index = written[rng.below(written.len() as u64) as usize];
                        image.write(stored_addr(level, index), fresh.node(level, index).0);
                    }
                }

                for from in 0..geom.root_level() {
                    let (mut a, mut b) = (image.clone(), image.clone());
                    let expected = bmt::rebuild_from_level(&mut a, layout, &engine, from);
                    let got = fresh.rebuild_from_level(&mut b, layout, &engine, from);
                    ensure!(got == expected, "{kind} from level {from}: outcome differs");
                    ensure!(a == b, "{kind} from level {from}: image differs");
                }
            }
            Ok(())
        },
    );
}

#[test]
fn node_buf_slots_are_independent() {
    check("node_buf_slots_are_independent", Config::default(), |rng| {
        let n = rng.gen_range(0..32);
        let mut node = NodeBuf::zeroed();
        let mut model = [0u64; 8];
        for _ in 0..n {
            let slot = rng.gen_range(0..8) as usize;
            let value = rng.next_u64();
            node.set_slot(slot, triad_nvm::crypto::Mac64(value));
            model[slot] = value;
        }
        for (i, v) in model.iter().enumerate() {
            ensure!(node.slot(i).0 == *v, "slot {i} lost its value");
        }
        Ok(())
    });
}
