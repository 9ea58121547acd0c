//! PCM-style non-volatile memory substrate.
//!
//! Three layers:
//!
//! * [`store`] — the *functional* contents: a sparse map of 64-byte
//!   blocks with tamper-injection helpers for security tests. This is
//!   the part that survives a simulated power loss.
//! * [`timing`] — the PCM timing model of Table 1: RoRaBaChCo address
//!   mapping, per-bank row buffers with an open-adaptive policy, 60 ns
//!   reads and 150 ns writes, a shared data bus.
//! * [`controller`] — the memory controller: read path, and the
//!   ADR-protected **write-pending queue** (WPQ). Anything accepted
//!   into the WPQ is inside the persistence domain and therefore
//!   survives a crash (§3.2, §3.3.5) — functionally the store is
//!   updated at acceptance, while the timing model charges the drain.
//!
//! # Example
//!
//! ```rust
//! use triad_mem::controller::MemoryController;
//! use triad_sim::config::SystemConfig;
//! use triad_sim::{BlockAddr, Time};
//!
//! let mut mc = MemoryController::new(SystemConfig::tiny().mem);
//! let done = mc.write(BlockAddr(3), [7u8; 64], Time::ZERO);
//! let (data, _when) = mc.read(BlockAddr(3), done);
//! assert_eq!(data[0], 7);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod controller;
pub mod store;
pub mod timing;

pub use controller::{MemStats, MemoryController, WearTracker};
pub use store::SparseStore;
pub use timing::PcmTiming;
