//! Security-metadata layout and Bonsai-Merkle-tree machinery.
//!
//! The paper divides NVM into a **persistent** and a **non-persistent**
//! region (set at boot, like `memmap=4G!12G`), and chooses the design
//! where each region has its *own* BMT whose metadata lives inside the
//! region itself (§3.3.1: "we chose this approach"). This crate
//! provides:
//!
//! * [`layout`] — exact block-level placement of data, counter blocks,
//!   MAC blocks and BMT nodes within each region, and the two-region
//!   [`layout::MemoryMap`].
//! * [`bmt`] — tree geometry, node-buffer slot operations, and the
//!   pure rebuild/verify routines that the recovery engine uses
//!   (rebuild all levels above level *k* from the NVM image and check
//!   the result against the on-chip root), plus each region's
//!   [`bmt::FreshTree`], the tree over an all-zero image that lets a
//!   rebuild skip the nodes still in their fresh state.
//!
//! # Example
//!
//! ```rust
//! use triad_meta::layout::MemoryMap;
//! use triad_sim::config::SystemConfig;
//!
//! let map = MemoryMap::new(&SystemConfig::tiny());
//! let data = map.persistent().data_start;
//! let counter = map.persistent().counter_block_of(data);
//! assert!(map.persistent().contains(counter.base()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bmt;
pub mod layout;

pub use bmt::{BmtGeometry, FreshTree, NodeBuf, NodeId};
pub use layout::{MemoryMap, RegionKind, RegionLayout};
