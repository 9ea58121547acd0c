//! Bonsai-Merkle-tree geometry, node buffers and rebuild routines.
//!
//! Leaves (level 0) are the split-counter blocks; every node above
//! packs `arity` 8-byte child hashes into a 64 B block. The single top
//! node — the **root node** — is held on-chip in a persistent register
//! (the paper notes the root may hold a full 64 B). Intermediate nodes
//! live in memory and are rebuildable: that is what makes the
//! TriadNVM-N relaxation sound (§3.3.3).

use triad_crypto::mac::{Mac64, MacEngine};
use triad_mem::store::{Block, SparseStore};

use crate::layout::{RegionKind, RegionLayout};

/// Tree shape over a given number of leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmtGeometry {
    arity: u64,
    /// `level_counts[l]` = number of nodes at level `l`; index 0 =
    /// leaves (counter blocks), last index = the single root node.
    level_counts: Vec<u64>,
}

impl BmtGeometry {
    /// Builds the geometry for `leaves` counter blocks with the given
    /// arity.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is not in `2..=8` (eight 8 B hashes is all a
    /// 64 B node can hold) or is not a power of two.
    pub fn new(leaves: u64, arity: u64) -> Self {
        assert!(
            (2..=8).contains(&arity) && arity.is_power_of_two(),
            "arity must be 2, 4 or 8, got {arity}"
        );
        let mut level_counts = vec![leaves];
        let mut n = leaves;
        // Grow until a single node covers everything; `max(1)` keeps the
        // degenerate 0/1-leaf regions well-formed with a root at level 1.
        while level_counts.len() < 2 || n > 1 {
            n = n.div_ceil(arity).max(1);
            level_counts.push(n);
            if n == 1 {
                break;
            }
        }
        BmtGeometry {
            arity,
            level_counts,
        }
    }

    /// The tree arity.
    pub fn arity(&self) -> u64 {
        self.arity
    }

    /// Number of leaves (counter blocks).
    pub fn leaves(&self) -> u64 {
        self.level_counts[0]
    }

    /// The root node's level (leaves are level 0).
    pub fn root_level(&self) -> u8 {
        (self.level_counts.len() - 1) as u8
    }

    /// Number of nodes at `level`; zero when out of range.
    pub fn nodes_at_level(&self, level: u8) -> u64 {
        self.level_counts.get(level as usize).copied().unwrap_or(0)
    }

    /// Node counts for the in-memory levels (1‥root, exclusive),
    /// lowest level first.
    pub fn in_memory_level_counts(&self) -> Vec<u64> {
        if self.level_counts.len() <= 2 {
            return Vec::new();
        }
        self.level_counts[1..self.level_counts.len() - 1].to_vec()
    }

    /// Parent coordinates of node `(level, index)`.
    pub fn parent(&self, level: u8, index: u64) -> (u8, u64) {
        (level + 1, index / self.arity)
    }

    /// The slot this node's hash occupies inside its parent.
    pub fn child_slot(&self, index: u64) -> usize {
        (index % self.arity) as usize
    }

    /// Total in-memory metadata blocks (all levels except leaves and
    /// root).
    pub fn in_memory_nodes(&self) -> u64 {
        self.in_memory_level_counts().iter().sum()
    }
}

/// Logical identity of a tree node, bound into its hash so nodes
/// cannot be relocated between levels, indices or regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId {
    /// Region whose tree the node belongs to.
    pub region: RegionKind,
    /// Level (0 = counter blocks).
    pub level: u8,
    /// Index within the level.
    pub index: u64,
}

impl NodeId {
    /// Packs the identity into the 64-bit "address" fed to the MAC.
    pub fn to_u64(self) -> u64 {
        let region_bit = match self.region {
            RegionKind::NonPersistent => 0u64,
            RegionKind::Persistent => 1u64 << 63,
        };
        region_bit | ((self.level as u64) << 56) | (self.index & ((1 << 56) - 1))
    }
}

/// A 64-byte tree-node buffer: `arity` 8-byte child-hash slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBuf(pub Block);

impl Default for NodeBuf {
    fn default() -> Self {
        NodeBuf::zeroed()
    }
}

impl NodeBuf {
    /// An all-zero node (the lazy-recovery initial state, §3.3.4).
    pub fn zeroed() -> Self {
        NodeBuf([0; 64])
    }

    /// Reads child-hash slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 8`.
    pub fn slot(&self, slot: usize) -> Mac64 {
        // Documented panic on slot >= 8; the slice is 8 bytes exactly.
        let b: [u8; 8] = self.0[slot * 8..slot * 8 + 8]
            .try_into()
            // triad-lint: allow(panic-policy) -- documented panic; the MAC block is 64 bytes so every slot < 8 is in range
            .expect("8-byte slot");
        Mac64::from_bytes(b)
    }

    /// Writes child-hash slot `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 8`.
    pub fn set_slot(&mut self, slot: usize, mac: Mac64) {
        self.0[slot * 8..slot * 8 + 8].copy_from_slice(&mac.to_bytes());
    }

    /// Whether every slot is zero.
    pub fn is_zeroed(&self) -> bool {
        self.0 == [0; 64]
    }
}

impl From<Block> for NodeBuf {
    fn from(b: Block) -> Self {
        NodeBuf(b)
    }
}

impl AsRef<Block> for NodeBuf {
    fn as_ref(&self) -> &Block {
        &self.0
    }
}

/// Hash of a node's (or counter block's) 64 bytes, bound to its
/// identity.
pub fn node_hash(engine: &MacEngine, id: NodeId, bytes: &Block) -> Mac64 {
    engine.node_mac(id.to_u64(), bytes)
}

/// Hash of a **leaf** (counter block), with the lazy-recovery sentinel
/// of §3.3.4: an all-zero counter block hashes to [`Mac64::ZERO`], and
/// a counter block that would *naturally* hash to zero is remapped to 1
/// (the paper instead bumps a minor counter and re-encrypts; remapping
/// is behaviourally equivalent — no genuine counter state ever carries
/// the "uninitialised" marker — and keeps the hash a pure function).
pub fn leaf_hash(engine: &MacEngine, region: RegionKind, index: u64, bytes: &Block) -> Mac64 {
    if bytes == &[0u8; 64] {
        return Mac64::ZERO;
    }
    let h = node_hash(
        engine,
        NodeId {
            region,
            level: 0,
            index,
        },
        bytes,
    );
    if h.is_zero() {
        Mac64(1)
    } else {
        h
    }
}

/// Result of a tree rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebuildOutcome {
    /// The recomputed root node.
    pub root: NodeBuf,
    /// Blocks read from NVM during the rebuild (drives the
    /// recovery-time model: 100 ns per block in the paper's estimate).
    pub blocks_read: u64,
    /// Hashes the modeled rebuild computes: one per node read and one
    /// per stored node rewritten. This is the modeled rebuild's work,
    /// not the host's SipHash calls: leaves hash to the zero sentinel
    /// without one, and [`FreshTree::rebuild_from_level`] reports the
    /// same count while hashing only the nodes that left their fresh
    /// image.
    pub hashes_computed: u64,
}

/// Rebuilds all BMT levels **above** `from_level` from the NVM image,
/// writing the recomputed in-memory levels back into `store`, and
/// returns the recomputed root node.
///
/// * `from_level = 0` — read every counter block and rebuild the whole
///   tree (the "counters only persisted" case, paper's TriadNVM-1).
/// * `from_level = k` — trust the persisted level-`k` nodes and rebuild
///   upward (TriadNVM-(k+1)).
///
/// # Panics
///
/// Panics if `from_level` is at or above the root level (nothing to
/// rebuild) on a non-empty region.
pub fn rebuild_from_level(
    store: &mut SparseStore,
    layout: &RegionLayout,
    engine: &MacEngine,
    from_level: u8,
) -> RebuildOutcome {
    let geom = &layout.geometry;
    if layout.is_empty() {
        return RebuildOutcome {
            root: NodeBuf::zeroed(),
            blocks_read: 0,
            hashes_computed: 0,
        };
    }
    assert!(
        from_level < geom.root_level(),
        "from_level {from_level} has nothing above it (root level {})",
        geom.root_level()
    );
    let mut blocks_read = 0u64;
    let mut hashes = 0u64;
    // Hashes of the current level's nodes, read from NVM.
    let mut level = from_level;
    let mut current: Vec<Mac64> = (0..geom.nodes_at_level(level))
        .map(|i| {
            let addr = if level == 0 {
                layout.counter_start + i
            } else {
                // Rebuild walks stored levels only (below the root).
                layout
                    .bmt_node_addr(level, i)
                    // triad-lint: allow(panic-policy) -- rebuild iterates nodes_at_level, so every (level, i) is a stored node
                    .expect("in-memory level node")
            };
            blocks_read += 1;
            hashes += 1;
            let bytes = store.read(addr);
            if level == 0 {
                leaf_hash(engine, layout.kind, i, &bytes)
            } else {
                node_hash(
                    engine,
                    NodeId {
                        region: layout.kind,
                        level,
                        index: i,
                    },
                    &bytes,
                )
            }
        })
        .collect();
    // Build upward, writing in-memory levels back.
    loop {
        let parent_level = level + 1;
        let parent_count = geom.nodes_at_level(parent_level);
        let mut parents: Vec<NodeBuf> = vec![NodeBuf::zeroed(); parent_count as usize];
        for (i, mac) in current.iter().enumerate() {
            let (pl, pi) = geom.parent(level, i as u64);
            debug_assert_eq!(pl, parent_level);
            parents[pi as usize].set_slot(geom.child_slot(i as u64), *mac);
        }
        if parent_level == geom.root_level() {
            return RebuildOutcome {
                root: parents[0],
                blocks_read,
                hashes_computed: hashes,
            };
        }
        current = parents
            .iter()
            .enumerate()
            .map(|(i, node)| {
                // The loop stops before the root, so the level is stored.
                let addr = layout
                    .bmt_node_addr(parent_level, i as u64)
                    // triad-lint: allow(panic-policy) -- the loop stops before the root, so parent_level is always stored
                    .expect("in-memory level");
                store.write(addr, node.0);
                hashes += 1;
                node_hash(
                    engine,
                    NodeId {
                        region: layout.kind,
                        level: parent_level,
                        index: i as u64,
                    },
                    &node.0,
                )
            })
            .collect();
        level = parent_level;
    }
}

/// A region's tree over an all-zero image: what a new engine builds,
/// and what the non-persistent region returns to at every boot
/// (§3.3.4). Every leaf hashes to the zero sentinel, so level 1 is all
/// zero, and the tree keeps only its stored levels ≥ 2 and its root
/// node.
///
/// A node's hash depends only on the key, the node's identity and its
/// bytes. So a node whose bytes equal its fresh image hashes to the
/// slot its fresh parent holds for it, and
/// [`FreshTree::rebuild_from_level`] reads that slot instead of
/// hashing. Every method takes the layout and MAC engine the tree was
/// built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreshTree {
    /// The stored levels 2‥root−1 back to back, lowest first.
    nodes: Vec<NodeBuf>,
    /// Where each of those levels starts in `nodes`.
    starts: Vec<usize>,
    root: NodeBuf,
}

impl FreshTree {
    /// Hashes the fresh tree of `layout` under `engine`: one hash per
    /// stored node, and no read of the image.
    pub fn new(layout: &RegionLayout, engine: &MacEngine) -> Self {
        let geom = &layout.geometry;
        let root_level = if layout.is_empty() {
            1
        } else {
            geom.root_level()
        };
        let mut starts = Vec::new();
        let mut stored = 0;
        for level in 2..root_level {
            starts.push(stored);
            stored += geom.nodes_at_level(level) as usize;
        }
        let mut tree = FreshTree {
            nodes: vec![NodeBuf::zeroed(); stored],
            starts,
            root: NodeBuf::zeroed(),
        };
        // Bottom-up, each node's hash fills its parent's slot; level 1
        // is all zero (and a level-1 root holds the leaves' zero
        // sentinels).
        for level in 1..root_level {
            for index in 0..geom.nodes_at_level(level) {
                let bytes = tree.node(level, index).0;
                let hash = node_hash(engine, node_id(layout, level, index), &bytes);
                let (parent_level, parent) = geom.parent(level, index);
                let slot = geom.child_slot(index);
                if parent_level == root_level {
                    tree.root.set_slot(slot, hash);
                } else {
                    let at = tree.starts[usize::from(parent_level) - 2] + parent as usize;
                    tree.nodes[at].set_slot(slot, hash);
                }
            }
        }
        tree
    }

    /// The fresh root node.
    pub fn root(&self) -> NodeBuf {
        self.root
    }

    /// The fresh bytes of node `(level, index)` below the root: all
    /// zero at levels 0 and 1.
    ///
    /// `index` must be a node of `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is 2 or above and not below the root level.
    pub fn node(&self, level: u8, index: u64) -> NodeBuf {
        match level.checked_sub(2) {
            Some(l) => self.nodes[self.starts[usize::from(l)] + index as usize],
            None => NodeBuf::zeroed(),
        }
    }

    /// The hash of node `(level, index)` holding `bytes`: the slot its
    /// fresh parent holds for it when `bytes` is its fresh image, a
    /// computed hash otherwise. A leaf (level 0) hashes as
    /// [`leaf_hash`], whose zero sentinel needs no hash.
    pub fn node_hash(
        &self,
        layout: &RegionLayout,
        engine: &MacEngine,
        level: u8,
        index: u64,
        bytes: &Block,
    ) -> Mac64 {
        if level == 0 {
            return leaf_hash(engine, layout.kind, index, bytes);
        }
        if *bytes != self.node(level, index).0 {
            return node_hash(engine, node_id(layout, level, index), bytes);
        }
        let geom = &layout.geometry;
        let (parent_level, parent) = geom.parent(level, index);
        let parent = if parent_level == geom.root_level() {
            self.root
        } else {
            self.node(parent_level, parent)
        };
        parent.slot(geom.child_slot(index))
    }

    /// Returns the region's stored tree to its fresh image: level 1 is
    /// zeroed one image page at a time and the levels above take their
    /// fresh bytes, without a hash. Returns the fresh root, which the
    /// caller installs in its register.
    pub fn reset(&self, store: &mut SparseStore, layout: &RegionLayout) -> NodeBuf {
        for (level, &start) in (1..).zip(&layout.bmt_level_start) {
            let count = layout.geometry.nodes_at_level(level);
            if level == 1 {
                store.zero_blocks(start, count);
                continue;
            }
            for index in 0..count {
                store.write(start + index, self.node(level, index).0);
            }
        }
        self.root
    }

    /// [`rebuild_from_level`] with this tree's help: the same outcome
    /// and the same image, but a node whose bytes equal its fresh image
    /// takes its hash from its fresh parent (see
    /// [`FreshTree::node_hash`]), so only the nodes that differ are
    /// hashed.
    ///
    /// # Panics
    ///
    /// Panics if `from_level` is at or above the root level on a
    /// non-empty region, like [`rebuild_from_level`].
    pub fn rebuild_from_level(
        &self,
        store: &mut SparseStore,
        layout: &RegionLayout,
        engine: &MacEngine,
        from_level: u8,
    ) -> RebuildOutcome {
        let geom = &layout.geometry;
        if layout.is_empty() {
            return RebuildOutcome {
                root: NodeBuf::zeroed(),
                blocks_read: 0,
                hashes_computed: 0,
            };
        }
        assert!(
            from_level < geom.root_level(),
            "from_level {from_level} has nothing above it (root level {})",
            geom.root_level()
        );
        let mut level = from_level;
        let blocks_read = geom.nodes_at_level(level);
        let mut hashes = blocks_read;
        let mut current: Vec<Mac64> = (0..blocks_read)
            .map(|i| {
                let addr = if level == 0 {
                    layout.counter_start + i
                } else {
                    layout
                        .bmt_node_addr(level, i)
                        // triad-lint: allow(panic-policy) -- rebuild iterates nodes_at_level, so every (level, i) is a stored node
                        .expect("in-memory level node")
                };
                self.node_hash(layout, engine, level, i, &store.read(addr))
            })
            .collect();
        loop {
            let parents = parent_nodes(geom, level, &current);
            level += 1;
            if level == geom.root_level() {
                return RebuildOutcome {
                    root: parents[0],
                    blocks_read,
                    hashes_computed: hashes,
                };
            }
            hashes += parents.len() as u64;
            current = parents
                .iter()
                .enumerate()
                .map(|(i, node)| {
                    let addr = layout
                        .bmt_node_addr(level, i as u64)
                        // triad-lint: allow(panic-policy) -- the loop stops before the root, so the level is always stored
                        .expect("in-memory level");
                    store.write(addr, node.0);
                    self.node_hash(layout, engine, level, i as u64, &node.0)
                })
                .collect();
        }
    }
}

fn node_id(layout: &RegionLayout, level: u8, index: u64) -> NodeId {
    NodeId {
        region: layout.kind,
        level,
        index,
    }
}

/// The level-`level + 1` nodes holding the hashes of level `level`.
fn parent_nodes(geom: &BmtGeometry, level: u8, hashes: &[Mac64]) -> Vec<NodeBuf> {
    let mut parents = vec![NodeBuf::zeroed(); geom.nodes_at_level(level + 1) as usize];
    for (i, mac) in hashes.iter().enumerate() {
        let (_, parent) = geom.parent(level, i as u64);
        parents[parent as usize].set_slot(geom.child_slot(i as u64), *mac);
    }
    parents
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_sim::config::SystemConfig;

    use crate::layout::MemoryMap;

    #[test]
    fn geometry_level_counts() {
        let g = BmtGeometry::new(100, 8);
        assert_eq!(g.leaves(), 100);
        assert_eq!(g.nodes_at_level(1), 13);
        assert_eq!(g.nodes_at_level(2), 2);
        assert_eq!(g.nodes_at_level(3), 1);
        assert_eq!(g.root_level(), 3);
        assert_eq!(g.in_memory_level_counts(), vec![13, 2]);
        assert_eq!(g.in_memory_nodes(), 15);
    }

    #[test]
    fn geometry_degenerate_sizes() {
        let g = BmtGeometry::new(0, 8);
        assert_eq!(g.root_level(), 1);
        assert!(g.in_memory_level_counts().is_empty());
        let g = BmtGeometry::new(1, 8);
        assert_eq!(g.root_level(), 1);
        let g = BmtGeometry::new(8, 8);
        assert_eq!(g.root_level(), 1);
        let g = BmtGeometry::new(9, 8);
        assert_eq!(g.root_level(), 2);
        assert_eq!(g.in_memory_level_counts(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn bad_arity_rejected() {
        BmtGeometry::new(10, 16);
    }

    #[test]
    fn parent_child_mapping() {
        let g = BmtGeometry::new(100, 8);
        assert_eq!(g.parent(0, 17), (1, 2));
        assert_eq!(g.child_slot(17), 1);
        assert_eq!(g.arity(), 8);
    }

    #[test]
    fn node_buf_slots() {
        let mut n = NodeBuf::zeroed();
        assert!(n.is_zeroed());
        n.set_slot(3, Mac64(0xABCD));
        assert_eq!(n.slot(3), Mac64(0xABCD));
        assert_eq!(n.slot(2), Mac64::ZERO);
        assert!(!n.is_zeroed());
    }

    #[test]
    fn node_id_packing_is_injective_across_fields() {
        let a = NodeId {
            region: RegionKind::Persistent,
            level: 1,
            index: 5,
        };
        let b = NodeId {
            region: RegionKind::NonPersistent,
            level: 1,
            index: 5,
        };
        let c = NodeId {
            region: RegionKind::Persistent,
            level: 2,
            index: 5,
        };
        let d = NodeId {
            region: RegionKind::Persistent,
            level: 1,
            index: 6,
        };
        let ids = [a, b, c, d].map(NodeId::to_u64);
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(ids[i], ids[j]);
            }
        }
    }

    fn setup() -> (SparseStore, MemoryMap, MacEngine) {
        (
            SparseStore::new(),
            MemoryMap::new(&SystemConfig::tiny()),
            MacEngine::new([5; 16]),
        )
    }

    #[test]
    fn rebuild_is_deterministic_and_input_sensitive() {
        let (mut store, map, engine) = setup();
        let layout = map.persistent();
        let a = rebuild_from_level(&mut store, layout, &engine, 0);
        let b = rebuild_from_level(&mut store, layout, &engine, 0);
        assert_eq!(a.root, b.root);
        // Tamper with one counter block → root changes.
        store.tamper(layout.counter_start, {
            let mut m = [0u8; 64];
            m[0] = 1;
            m
        });
        let c = rebuild_from_level(&mut store, layout, &engine, 0);
        assert_ne!(a.root, c.root);
    }

    #[test]
    fn rebuild_from_level0_reads_all_counters() {
        let (mut store, map, engine) = setup();
        let layout = map.persistent();
        let out = rebuild_from_level(&mut store, layout, &engine, 0);
        assert_eq!(out.blocks_read, layout.counter_blocks);
        assert!(out.hashes_computed >= out.blocks_read);
    }

    #[test]
    fn rebuild_from_level1_matches_full_rebuild() {
        let (mut store, map, engine) = setup();
        let layout = map.persistent();
        // Full rebuild writes correct L1 (and up) nodes into the store…
        let full = rebuild_from_level(&mut store, layout, &engine, 0);
        // …so a rebuild that *trusts* L1 must reach the same root.
        let partial = rebuild_from_level(&mut store, layout, &engine, 1);
        assert_eq!(full.root, partial.root);
        assert_eq!(partial.blocks_read, layout.geometry.nodes_at_level(1));
        assert!(partial.blocks_read < full.blocks_read);
    }

    #[test]
    fn tampered_intermediate_node_changes_partial_rebuild_root() {
        let (mut store, map, engine) = setup();
        let layout = map.persistent();
        let honest = rebuild_from_level(&mut store, layout, &engine, 0);
        let l1 = layout.bmt_node_addr(1, 0).unwrap();
        store.tamper(l1, {
            let mut m = [0u8; 64];
            m[8] = 0xFF;
            m
        });
        let partial = rebuild_from_level(&mut store, layout, &engine, 1);
        assert_ne!(honest.root, partial.root, "tampering must be visible");
    }

    #[test]
    fn leaf_hash_sentinel_semantics() {
        let engine = MacEngine::new([5; 16]);
        let zero = [0u8; 64];
        assert_eq!(
            leaf_hash(&engine, RegionKind::Persistent, 3, &zero),
            Mac64::ZERO
        );
        let mut one = zero;
        one[0] = 1;
        let h = leaf_hash(&engine, RegionKind::Persistent, 3, &one);
        assert!(!h.is_zero(), "real counter state never hashes to zero");
        // Different leaf indices of identical bytes hash differently.
        assert_ne!(h, leaf_hash(&engine, RegionKind::Persistent, 4, &one));
    }

    #[test]
    fn untouched_region_has_all_zero_level_one() {
        // With the sentinel, a fresh region's L1 is entirely zero, so
        // the initial tree build stores no L1 bytes at all.
        let (mut store, map, engine) = setup();
        let layout = map.persistent();
        rebuild_from_level(&mut store, layout, &engine, 0);
        let l1 = layout.bmt_node_addr(1, 0).unwrap();
        assert_eq!(store.read(l1), [0u8; 64]);
    }

    #[test]
    fn empty_region_rebuild_is_trivial() {
        let mut cfg = SystemConfig::tiny();
        cfg.persistent_eighths = 0;
        let map = MemoryMap::new(&cfg);
        let mut store = SparseStore::new();
        let engine = MacEngine::new([5; 16]);
        let out = rebuild_from_level(&mut store, map.persistent(), &engine, 0);
        assert_eq!(out.blocks_read, 0);
        assert!(out.root.is_zeroed());
    }
}
