//! The block-granular persistent heap the KV store lives on.
//!
//! The paper builds its microbenchmarks on Intel PMDK; this module is
//! the allocator layer of that substrate over the simulated secure
//! memory: a heap over the whole persistent region with
//!
//! * a **header** block (magic, allocation cursor, root pointer,
//!   allocation-slot registration),
//! * 32 reserved blocks, and
//! * a bump-allocated **data area**.
//!
//! Every header update is one single-block persist: store, `clwb`,
//! `sfence`, which the simulator models as [`SecureMemory::persist`],
//! so the full Triad-NVM metadata machinery is exercised on every
//! step. Crash-atomic multi-block updates are the store's job: its
//! redo log is [`crate::log::RedoLog`].
//!
//! ## Allocation crash-safety
//!
//! [`PersistentHeap::alloc_blocks`] persists the advanced cursor
//! *before* returning, so an address is only ever handed out once:
//! a crash can never lead to double-allocation. The converse hazard —
//! a crash after the cursor persist but before the caller persists any
//! payload — at worst *leaks* the allocated blocks (the bump cursor
//! stays advanced, nothing points at the blocks, and they are never
//! reused, so they still read as zeros). That is the documented,
//! regression-pinned behavior: leak-on-crash, never reuse-on-crash.
//!
//! ## Concurrent callers and allocation slots
//!
//! The heap has a **single-allocator discipline**: the cursor is one
//! shared word with no CAS, so raw [`PersistentHeap::alloc_blocks`]
//! is only sound when each call runs as one atomic step of a single
//! driver (the `triad-recov` harness) or from a single thread.
//! Concurrent *recovering* callers additionally need to know whether
//! an allocation they were making when they crashed took effect; raw
//! `alloc_blocks` cannot tell them (the leak-on-crash hazard above).
//!
//! For that, the heap offers per-thread **allocation slots**
//! ([`PersistentHeap::register_alloc_slots`], enforced by typed
//! errors, not silent corruption): [`PersistentHeap::alloc_blocks_for`]
//! writes a checksummed marker (slot, seq, addr, blocks) durably
//! *before* bumping the cursor, so a re-executed call with the same
//! `(slot, seq)` returns the same address instead of leaking —
//! detectable allocation. A torn cursor bump (marker durable, bump
//! lost) is completed by [`PersistentHeap::open`], which replays the
//! slot markers idempotently.

use std::error::Error;
use std::fmt;

use triad_core::{SecureMemory, SecureMemoryError};
use triad_crypto::SipHash24;
use triad_sim::{PhysAddr, BLOCK_BYTES};

/// Errors of the persistent heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeapError {
    /// The underlying secure memory failed (tampering, crash, …).
    Memory(SecureMemoryError),
    /// `open` found no formatted heap.
    NotFormatted,
    /// The data area is exhausted.
    OutOfSpace,
    /// `register_alloc_slots` was called on a heap that already has
    /// slots registered (registration is once per heap lifetime).
    SlotsAlreadyRegistered {
        /// How many slots are registered.
        slots: u64,
    },
    /// `alloc_blocks_for` was called before any slots were registered.
    SlotsNotRegistered,
    /// The slot index is outside the registered range.
    NoSuchAllocSlot {
        /// The rejected slot.
        slot: u64,
        /// The number of registered slots.
        slots: u64,
    },
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::Memory(e) => write!(f, "secure memory error: {e}"),
            HeapError::NotFormatted => write!(f, "no formatted heap in the persistent region"),
            HeapError::OutOfSpace => write!(f, "persistent heap is out of space"),
            HeapError::SlotsAlreadyRegistered { slots } => {
                write!(f, "{slots} allocation slots are already registered")
            }
            HeapError::SlotsNotRegistered => {
                write!(
                    f,
                    "no allocation slots registered; call register_alloc_slots"
                )
            }
            HeapError::NoSuchAllocSlot { slot, slots } => {
                write!(
                    f,
                    "allocation slot {slot} out of range ({slots} registered)"
                )
            }
        }
    }
}

impl Error for HeapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HeapError::Memory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SecureMemoryError> for HeapError {
    fn from(e: SecureMemoryError) -> Self {
        HeapError::Memory(e)
    }
}

/// Shorthand for heap results.
pub type Result<T> = std::result::Result<T, HeapError>;

/// A persistent heap living in the secure memory's persistent region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistentHeap {
    base: PhysAddr,
    len_bytes: u64,
}

const HDR_MAGIC: usize = 0;
const HDR_CURSOR: usize = 8;
const HDR_ROOT: usize = 16;
// Bytes 24..40 of the header are unused.
const HDR_SLOT_BASE: usize = 40;
const HDR_SLOTS: usize = 48;

/// Blocks from the heap base to the data area: the header block plus
/// 32 reserved blocks. Nothing reads or writes the reserved blocks.
/// They hold the data area at the offset it has always had, so every
/// allocation keeps its address, and with it the cache sets, banks
/// and counter pages that the checked-in simulated baselines measure.
const DATA_OFFSET_BLOCKS: u64 = 1 + 32;

/// Slot-marker block layout (one 64 B block per registered slot).
const MARK_SEQ: usize = 0;
const MARK_ADDR: usize = 8;
const MARK_BLOCKS: usize = 16;
const MARK_CRC: usize = 24;

/// Fixed SipHash-2-4 key for slot-marker checksums (not secret:
/// torn-write detection only, same idiom as the KV WAL framing).
fn marker_hash() -> SipHash24 {
    SipHash24::new(*b"triad-recovalloc")
}

fn marker_checksum(slot: u64, seq: u64, addr: u64, blocks: u64) -> u64 {
    marker_hash().hash_words(&[slot, seq, addr, blocks])
}

/// Little-endian u64 at `off` of a block buffer.
fn read_u64(buf: &[u8; BLOCK_BYTES], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

impl PersistentHeap {
    fn header_addr(&self) -> PhysAddr {
        self.base
    }

    fn data_base(&self) -> PhysAddr {
        PhysAddr(self.base.0 + DATA_OFFSET_BLOCKS * 64)
    }

    /// Total allocatable data bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.len_bytes - (self.data_base().0 - self.base.0)
    }

    fn read_header(&self, mem: &mut SecureMemory) -> Result<[u8; BLOCK_BYTES]> {
        Ok(mem.read(self.header_addr())?)
    }

    fn header_u64(hdr: &[u8; BLOCK_BYTES], off: usize) -> u64 {
        read_u64(hdr, off)
    }

    fn write_header_u64(&self, mem: &mut SecureMemory, off: usize, value: u64) -> Result<()> {
        mem.write(
            PhysAddr(self.header_addr().0 + off as u64),
            &value.to_le_bytes(),
        )?;
        mem.persist(self.header_addr())?;
        Ok(())
    }

    /// Formats a fresh heap over the whole persistent region of `mem`.
    ///
    /// # Errors
    ///
    /// Propagates secure-memory errors.
    pub fn format(mem: &mut SecureMemory) -> Result<Self> {
        let region = mem.persistent_region();
        let heap = PersistentHeap {
            base: region.start(),
            len_bytes: region.len_bytes(),
        };
        let mut hdr = [0u8; BLOCK_BYTES];
        hdr[HDR_MAGIC..HDR_MAGIC + 8].copy_from_slice(&heap_magic().to_le_bytes());
        mem.write(heap.header_addr(), &hdr)?;
        mem.persist(heap.header_addr())?;
        Ok(heap)
    }

    /// Opens an existing heap, completing a torn slot allocation.
    ///
    /// # Errors
    ///
    /// [`HeapError::NotFormatted`] when the magic is absent.
    pub fn open(mem: &mut SecureMemory) -> Result<Self> {
        let region = mem.persistent_region();
        let heap = PersistentHeap {
            base: region.start(),
            len_bytes: region.len_bytes(),
        };
        let hdr = heap.read_header(mem)?;
        if Self::header_u64(&hdr, HDR_MAGIC) != heap_magic() {
            return Err(HeapError::NotFormatted);
        }
        // Replay a torn slot allocation: a marker pointing exactly at
        // the current cursor means `alloc_blocks_for` persisted the
        // marker but crashed before the bump — complete it
        // (idempotent). At most one marker can match: the cursor has
        // moved past every completed one.
        let nslots = Self::header_u64(&hdr, HDR_SLOTS);
        if nslots != 0 {
            let slot_base = Self::header_u64(&hdr, HDR_SLOT_BASE);
            let mut cursor = Self::header_u64(&hdr, HDR_CURSOR);
            for slot in 0..nslots {
                let marker = mem.read(PhysAddr(slot_base + slot * 64))?;
                let (seq, addr, blocks) = (
                    read_u64(&marker, MARK_SEQ),
                    read_u64(&marker, MARK_ADDR),
                    read_u64(&marker, MARK_BLOCKS),
                );
                if read_u64(&marker, MARK_CRC) == marker_checksum(slot, seq, addr, blocks)
                    && addr == heap.data_base().0 + cursor * 64
                {
                    cursor += blocks;
                    heap.write_header_u64(mem, HDR_CURSOR, cursor)?;
                }
            }
        }
        Ok(heap)
    }

    /// Allocates `blocks` consecutive 64 B blocks, returning their base
    /// address. Allocation is durable before the call returns.
    ///
    /// **Single-allocator discipline**: the cursor is one shared word,
    /// so this raw form is only sound when each call runs as one
    /// atomic step of a single driver (or from a single thread), and
    /// a caller that crashes mid-protocol leaks the blocks (see the
    /// module docs). Concurrent logical threads that need to *detect*
    /// whether a crashed allocation took effect must use
    /// [`PersistentHeap::alloc_blocks_for`] instead.
    ///
    /// # Errors
    ///
    /// [`HeapError::OutOfSpace`] when the data area is exhausted (the
    /// bound check uses checked arithmetic, so an absurd `blocks` count
    /// cannot wrap past the capacity in release builds).
    pub fn alloc_blocks(&self, mem: &mut SecureMemory, blocks: u64) -> Result<PhysAddr> {
        let hdr = self.read_header(mem)?;
        let cursor = Self::header_u64(&hdr, HDR_CURSOR);
        let end_bytes = cursor
            .checked_add(blocks)
            .and_then(|b| b.checked_mul(64))
            .ok_or(HeapError::OutOfSpace)?;
        if end_bytes > self.capacity_bytes() {
            return Err(HeapError::OutOfSpace);
        }
        self.write_header_u64(mem, HDR_CURSOR, cursor + blocks)?;
        Ok(PhysAddr(self.data_base().0 + cursor * 64))
    }

    /// Registers `slots` per-thread allocation slots (one marker block
    /// each), returning the marker area's base. Registration happens
    /// once per heap lifetime — the slot count is the typed guard that
    /// replaces silent cursor corruption for concurrent callers.
    ///
    /// A crash inside registration at worst leaks the marker blocks
    /// (the commit point is the slot-count header write, last).
    ///
    /// # Errors
    ///
    /// [`HeapError::SlotsAlreadyRegistered`] on re-registration;
    /// [`HeapError::OutOfSpace`] when the marker area does not fit.
    pub fn register_alloc_slots(&self, mem: &mut SecureMemory, slots: u64) -> Result<PhysAddr> {
        let hdr = self.read_header(mem)?;
        let existing = Self::header_u64(&hdr, HDR_SLOTS);
        if existing != 0 {
            return Err(HeapError::SlotsAlreadyRegistered { slots: existing });
        }
        let base = self.alloc_blocks(mem, slots)?;
        self.write_header_u64(mem, HDR_SLOT_BASE, base.0)?;
        // Commit point: the count makes the registration visible.
        self.write_header_u64(mem, HDR_SLOTS, slots)?;
        Ok(base)
    }

    /// The number of registered allocation slots (0 = none).
    ///
    /// # Errors
    ///
    /// Propagates secure-memory errors.
    pub fn alloc_slots(&self, mem: &mut SecureMemory) -> Result<u64> {
        Ok(Self::header_u64(&self.read_header(mem)?, HDR_SLOTS))
    }

    /// Detectable allocation for concurrent recovering callers:
    /// allocates `blocks` like [`PersistentHeap::alloc_blocks`], but
    /// records a checksummed `(slot, seq, addr, blocks)` marker
    /// durably *before* the cursor moves. Re-executing the call with
    /// the same `(slot, seq, blocks)` — the recovery replay of a
    /// crashed thread — returns the **same** address instead of
    /// allocating again, so an allocation is applied exactly once
    /// across crash and re-execution.
    ///
    /// The caller contract is that `seq` is strictly increasing per
    /// slot (the per-thread operation sequence number); a stale marker
    /// is simply overwritten by the next fresh allocation.
    ///
    /// # Errors
    ///
    /// [`HeapError::SlotsNotRegistered`] /
    /// [`HeapError::NoSuchAllocSlot`] for slot misuse,
    /// [`HeapError::OutOfSpace`] as for `alloc_blocks`.
    pub fn alloc_blocks_for(
        &self,
        mem: &mut SecureMemory,
        blocks: u64,
        slot: u64,
        seq: u64,
    ) -> Result<PhysAddr> {
        let hdr = self.read_header(mem)?;
        let nslots = Self::header_u64(&hdr, HDR_SLOTS);
        if nslots == 0 {
            return Err(HeapError::SlotsNotRegistered);
        }
        if slot >= nslots {
            return Err(HeapError::NoSuchAllocSlot {
                slot,
                slots: nslots,
            });
        }
        let maddr = PhysAddr(Self::header_u64(&hdr, HDR_SLOT_BASE) + slot * 64);
        let cursor = Self::header_u64(&hdr, HDR_CURSOR);
        let marker = mem.read(maddr)?;
        let (mseq, addr, mblocks) = (
            read_u64(&marker, MARK_SEQ),
            read_u64(&marker, MARK_ADDR),
            read_u64(&marker, MARK_BLOCKS),
        );
        if read_u64(&marker, MARK_CRC) == marker_checksum(slot, mseq, addr, mblocks)
            && mseq == seq
            && mblocks == blocks
        {
            // Replay of an allocation that already became durable.
            // (A torn cursor bump was completed by `open`; completing
            // it here too keeps the call self-contained.)
            if addr == self.data_base().0 + cursor * 64 {
                self.write_header_u64(mem, HDR_CURSOR, cursor + blocks)?;
            }
            return Ok(PhysAddr(addr));
        }
        let end_bytes = cursor
            .checked_add(blocks)
            .and_then(|b| b.checked_mul(64))
            .ok_or(HeapError::OutOfSpace)?;
        if end_bytes > self.capacity_bytes() {
            return Err(HeapError::OutOfSpace);
        }
        let fresh = self.data_base().0 + cursor * 64;
        // 1. Marker first: durable intent, so a re-execution after a
        //    crash anywhere past this point adopts the same address.
        let mut m = [0u8; BLOCK_BYTES];
        m[MARK_SEQ..MARK_SEQ + 8].copy_from_slice(&seq.to_le_bytes());
        m[MARK_ADDR..MARK_ADDR + 8].copy_from_slice(&fresh.to_le_bytes());
        m[MARK_BLOCKS..MARK_BLOCKS + 8].copy_from_slice(&blocks.to_le_bytes());
        m[MARK_CRC..MARK_CRC + 8]
            .copy_from_slice(&marker_checksum(slot, seq, fresh, blocks).to_le_bytes());
        mem.write(maddr, &m)?;
        mem.persist(maddr)?;
        // 2. Cursor bump (torn bumps are replayed from the marker).
        self.write_header_u64(mem, HDR_CURSOR, cursor + blocks)?;
        Ok(PhysAddr(fresh))
    }

    /// Reads the root-object pointer (0 = unset).
    pub fn root(&self, mem: &mut SecureMemory) -> Result<u64> {
        Ok(Self::header_u64(&self.read_header(mem)?, HDR_ROOT))
    }

    /// Durably sets the root-object pointer.
    pub fn set_root(&self, mem: &mut SecureMemory, root: u64) -> Result<()> {
        self.write_header_u64(mem, HDR_ROOT, root)
    }
}

fn heap_magic() -> u64 {
    u64::from_le_bytes(*b"TRIADPMN")
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_core::{CrashHookKind, PersistScheme, SecureMemoryBuilder};

    fn mem() -> SecureMemory {
        SecureMemoryBuilder::new()
            .scheme(PersistScheme::triad_nvm(2))
            .build()
            .unwrap()
    }

    #[test]
    fn format_then_open() {
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        let h2 = PersistentHeap::open(&mut m).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn open_unformatted_fails() {
        let mut m = mem();
        assert_eq!(
            PersistentHeap::open(&mut m).unwrap_err(),
            HeapError::NotFormatted
        );
    }

    #[test]
    fn alloc_advances_and_is_durable() {
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        let a = h.alloc_blocks(&mut m, 2).unwrap();
        let b = h.alloc_blocks(&mut m, 1).unwrap();
        assert_eq!(b.0, a.0 + 128);
        m.crash();
        m.recover().unwrap();
        let h = PersistentHeap::open(&mut m).unwrap();
        let c = h.alloc_blocks(&mut m, 1).unwrap();
        assert_eq!(c.0, b.0 + 64, "cursor must survive the crash");
    }

    #[test]
    fn out_of_space_detected() {
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        let too_many = h.capacity_bytes() / 64 + 1;
        assert_eq!(
            h.alloc_blocks(&mut m, too_many).unwrap_err(),
            HeapError::OutOfSpace
        );
    }

    #[test]
    fn absurd_alloc_cannot_overflow_the_bound_check() {
        // Regression: `(cursor + blocks) * 64` wrapped in release builds
        // for huge counts, letting the bound check pass and the cursor
        // advance past the data area. Checked arithmetic must reject it.
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        for blocks in [u64::MAX, u64::MAX / 2, u64::MAX / 64 + 1] {
            assert_eq!(
                h.alloc_blocks(&mut m, blocks).unwrap_err(),
                HeapError::OutOfSpace
            );
        }
        // The cursor must be untouched by the rejected calls.
        let a = h.alloc_blocks(&mut m, 1).unwrap();
        assert_eq!(a, h.data_base());
    }

    #[test]
    fn root_pointer_round_trip() {
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        assert_eq!(h.root(&mut m).unwrap(), 0);
        h.set_root(&mut m, 0xFEED).unwrap();
        m.crash();
        m.recover().unwrap();
        let h = PersistentHeap::open(&mut m).unwrap();
        assert_eq!(h.root(&mut m).unwrap(), 0xFEED);
    }

    // ----- allocation crash-safety pins (issue-4 satellite audit) -----

    #[test]
    fn crash_during_cursor_persist_loses_the_allocation_cleanly() {
        // The crash fires *instead of* the cursor write-back: the
        // allocation never becomes durable, the caller sees the crash,
        // and after recovery the same address is handed out again — no
        // leak, no double-allocation, because the failed call never
        // returned an address.
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        let a = h.alloc_blocks(&mut m, 1).unwrap();
        m.arm_crash(CrashHookKind::PersistBoundary, 0).unwrap();
        assert_eq!(
            h.alloc_blocks(&mut m, 1).unwrap_err(),
            HeapError::Memory(SecureMemoryError::NeedsRecovery)
        );
        m.recover().unwrap();
        let h = PersistentHeap::open(&mut m).unwrap();
        let b = h.alloc_blocks(&mut m, 1).unwrap();
        assert_eq!(b.0, a.0 + 64, "lost allocation must be reissued");
    }

    #[test]
    fn crash_between_cursor_persist_and_payload_persist_never_reuses() {
        // The documented hazard: the cursor persist succeeded (the
        // allocation is durable) but the caller crashed before
        // persisting any payload. The blocks are leaked — the next
        // allocation must NOT hand them out again — and they still read
        // as zeros (fresh NVM, bump allocator never reuses).
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        // Boundary 0 = the cursor write-back of this alloc; boundary 1
        // = the payload persist below. Let the first through, crash on
        // the second.
        m.arm_crash(CrashHookKind::PersistBoundary, 1).unwrap();
        let a = h.alloc_blocks(&mut m, 1).unwrap();
        m.write(a, &[0xAB; 64]).unwrap();
        assert_eq!(
            m.persist(a).unwrap_err(),
            SecureMemoryError::NeedsRecovery,
            "payload persist must hit the injected crash"
        );
        m.recover().unwrap();
        let h = PersistentHeap::open(&mut m).unwrap();
        let b = h.alloc_blocks(&mut m, 1).unwrap();
        assert_eq!(b.0, a.0 + 64, "leaked block must never be reallocated");
        assert_eq!(m.read(a).unwrap(), [0; 64], "leaked block reads as zeros");
    }

    // ----- allocation slots (issue-9 satellite: concurrent callers) -----

    #[test]
    fn slot_registration_is_once_and_typed() {
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        assert_eq!(h.alloc_slots(&mut m).unwrap(), 0);
        assert_eq!(
            h.alloc_blocks_for(&mut m, 1, 0, 1).unwrap_err(),
            HeapError::SlotsNotRegistered
        );
        h.register_alloc_slots(&mut m, 3).unwrap();
        assert_eq!(h.alloc_slots(&mut m).unwrap(), 3);
        assert_eq!(
            h.register_alloc_slots(&mut m, 2).unwrap_err(),
            HeapError::SlotsAlreadyRegistered { slots: 3 }
        );
        assert_eq!(
            h.alloc_blocks_for(&mut m, 1, 3, 1).unwrap_err(),
            HeapError::NoSuchAllocSlot { slot: 3, slots: 3 }
        );
    }

    #[test]
    fn slot_alloc_replay_returns_the_same_address_exactly_once() {
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        h.register_alloc_slots(&mut m, 2).unwrap();
        let a = h.alloc_blocks_for(&mut m, 2, 0, 1).unwrap();
        // Replay with the same (slot, seq, blocks): same address, and
        // the cursor must not advance again.
        let a2 = h.alloc_blocks_for(&mut m, 2, 0, 1).unwrap();
        assert_eq!(a, a2);
        let b = h.alloc_blocks_for(&mut m, 1, 0, 2).unwrap();
        assert_eq!(b.0, a.0 + 128, "replay must not consume space");
        // Another slot's allocations are independent.
        let c = h.alloc_blocks_for(&mut m, 1, 1, 1).unwrap();
        assert_eq!(c.0, b.0 + 64);
    }

    #[test]
    fn crash_before_the_marker_persist_reissues_cleanly() {
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        h.register_alloc_slots(&mut m, 1).unwrap();
        let a = h.alloc_blocks_for(&mut m, 1, 0, 1).unwrap();
        // Boundary 0 = the marker persist of the next call: the intent
        // never becomes durable, so the re-executed call is a fresh
        // allocation at the same (unmoved) cursor.
        m.arm_crash(CrashHookKind::PersistBoundary, 0).unwrap();
        assert_eq!(
            h.alloc_blocks_for(&mut m, 1, 0, 2).unwrap_err(),
            HeapError::Memory(SecureMemoryError::NeedsRecovery)
        );
        m.recover().unwrap();
        let h = PersistentHeap::open(&mut m).unwrap();
        let b = h.alloc_blocks_for(&mut m, 1, 0, 2).unwrap();
        assert_eq!(b.0, a.0 + 64, "no space may leak");
    }

    #[test]
    fn torn_cursor_bump_is_completed_and_the_replay_adopts_the_marker() {
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        h.register_alloc_slots(&mut m, 1).unwrap();
        let a = h.alloc_blocks_for(&mut m, 1, 0, 1).unwrap();
        // Boundary 0 = marker persist (allowed through), boundary 1 =
        // the cursor bump: marker durable, bump torn away.
        m.arm_crash(CrashHookKind::PersistBoundary, 1).unwrap();
        assert_eq!(
            h.alloc_blocks_for(&mut m, 2, 0, 2).unwrap_err(),
            HeapError::Memory(SecureMemoryError::NeedsRecovery)
        );
        m.recover().unwrap();
        let h = PersistentHeap::open(&mut m).unwrap();
        // The replay with the same (slot, seq) adopts the marker: the
        // same address, applied exactly once.
        let b = h.alloc_blocks_for(&mut m, 2, 0, 2).unwrap();
        assert_eq!(b.0, a.0 + 64, "marker address must be adopted");
        // open() completed the bump, so a fresh allocation does not
        // overlap the adopted one.
        let c = h.alloc_blocks_for(&mut m, 1, 0, 3).unwrap();
        assert_eq!(c.0, b.0 + 128, "completed bump must not be lost");
    }

    #[test]
    fn completed_slot_alloc_survives_a_crash_and_still_replays() {
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        h.register_alloc_slots(&mut m, 1).unwrap();
        let a = h.alloc_blocks_for(&mut m, 1, 0, 7).unwrap();
        m.crash();
        m.recover().unwrap();
        let h = PersistentHeap::open(&mut m).unwrap();
        assert_eq!(h.alloc_blocks_for(&mut m, 1, 0, 7).unwrap(), a);
        let b = h.alloc_blocks_for(&mut m, 1, 0, 8).unwrap();
        assert_eq!(b.0, a.0 + 64);
    }

    #[test]
    fn crash_mid_wpq_during_cursor_persist_keeps_the_cursor_atomic() {
        // A crash in the middle of the cursor's own atomic persist
        // (between WPQ copies) is replayed from the persistent
        // registers at recovery: the cursor update is all-or-nothing,
        // so the post-recovery cursor is either the old or the new
        // value — never a torn mix — and a reissued allocation never
        // overlaps one that a *completed* call returned.
        let mut m = mem();
        let h = PersistentHeap::format(&mut m).unwrap();
        let a = h.alloc_blocks(&mut m, 1).unwrap();
        m.arm_crash(CrashHookKind::WpqWrite, 1).unwrap();
        let crashed = h.alloc_blocks(&mut m, 1);
        assert_eq!(
            crashed.unwrap_err(),
            HeapError::Memory(SecureMemoryError::NeedsRecovery)
        );
        m.recover().unwrap();
        let h = PersistentHeap::open(&mut m).unwrap();
        let b = h.alloc_blocks(&mut m, 1).unwrap();
        assert!(
            b.0 == a.0 + 64 || b.0 == a.0 + 128,
            "cursor must be old-or-new, got base {:#x} vs first alloc {:#x}",
            b.0,
            a.0
        );
    }
}

#[cfg(test)]
mod error_surface {
    use super::*;

    #[test]
    fn heap_errors_display_and_chain() {
        use std::error::Error as _;
        let e = HeapError::OutOfSpace;
        assert!(e.to_string().contains("out of space"));
        assert!(e.source().is_none());
        let inner = triad_core::SecureMemoryError::NeedsRecovery;
        let wrapped = HeapError::from(inner.clone());
        assert!(wrapped.to_string().contains("secure memory error"));
        assert!(wrapped.source().is_some());
        assert!(HeapError::NotFormatted.to_string().contains("formatted"));
        assert!(HeapError::SlotsAlreadyRegistered { slots: 4 }
            .to_string()
            .contains('4'));
        assert!(HeapError::SlotsNotRegistered
            .to_string()
            .contains("register_alloc_slots"));
        let e = HeapError::NoSuchAllocSlot { slot: 9, slots: 2 };
        assert!(e.to_string().contains('9') && e.to_string().contains('2'));
        assert!(e.source().is_none());
        let _ = inner;
    }

    #[test]
    fn heap_capacity_accounts_for_header_and_reserved_blocks() {
        let mut m = triad_core::SecureMemoryBuilder::new().build().unwrap();
        let h = PersistentHeap::format(&mut m).unwrap();
        let region = m.persistent_region().len_bytes();
        assert_eq!(h.capacity_bytes(), region - 33 * 64);
    }

    #[test]
    fn first_allocation_lands_after_the_reserved_blocks() {
        // Every simulated baseline depends on where data lands: this
        // pins the header block plus 32 reserved blocks in front of it.
        let mut m = triad_core::SecureMemoryBuilder::new().build().unwrap();
        let h = PersistentHeap::format(&mut m).unwrap();
        let first = h.alloc_blocks(&mut m, 1).unwrap();
        assert_eq!(first.0, m.persistent_region().start().0 + 33 * 64);
    }
}
