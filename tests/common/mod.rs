//! Shared crash-consistency machinery: the operation vocabulary and the
//! model-checked history interpreter used by both the seeded property
//! suite (`property_crash.rs`) and the checked-in regression histories
//! (`regression_triad2_persist_floor.rs`).

use triad_nvm::core::{
    CounterPersistence, CrashHookKind, IntegrityKind, PersistScheme, SecureMemoryBuilder,
    SecureMemoryError,
};
use triad_nvm::sim::{PhysAddr, Time};

/// Operations the crash-consistency machine can perform.
#[derive(Debug, Clone)]
// Each test binary compiles its own copy of this module, and the replay
// tests don't construct every variant.
#[allow(dead_code)]
pub enum Op {
    /// Write a fresh (monotonically numbered) value to page `page`.
    Write { page: u8 },
    /// Persist page `page` (clwb + sfence); inside an epoch, record
    /// it for the epoch's flush instead.
    Persist { page: u8 },
    /// Touch many other pages to force evictions.
    Pressure { seed: u8 },
    /// Clean power loss + recovery.
    Crash,
    /// Arm a crash after `n` WPQ copies inside a future atomic persist.
    ArmCrash { n: u8 },
    /// Open an epoch (deferred persists) if none is open.
    BeginEpoch,
    /// Close the epoch: one `flush_batch` over its recorded pages.
    EndEpoch,
    /// Flip a bit of the NVM copy of the level-`level` tree node above
    /// page `page`, write and persist the page, then flip the bit back
    /// if NVM still holds the flipped bytes. Either call may fail with
    /// an integrity violation that names the node.
    TamperedPersist { page: u8, level: u8 },
}

/// Runs `ops` against a fresh [`SecureMemory`] under `scheme` /
/// `counter_persistence`, checking after every crash that each page
/// recovers to a value between its persist floor and its last write.
///
/// [`SecureMemory`]: triad_nvm::core::SecureMemory
pub fn run_history(
    ops: &[Op],
    scheme: PersistScheme,
    counter_persistence: CounterPersistence,
) -> Result<(), String> {
    let mut mem = SecureMemoryBuilder::new()
        .scheme(scheme)
        .counter_persistence(counter_persistence)
        .key_seed(99)
        .build()
        .unwrap();
    let p = mem.persistent_region().start();
    let page_addr = |page: u8| PhysAddr(p.0 + page as u64 * 4096);

    // Model: per page, the last value written and the floor (last
    // value guaranteed durable by an explicit persist).
    let mut written = [0u64; 16];
    let mut floor = [0u64; 16];
    // The open epoch: the pages its persists recorded (repeats kept,
    // so the flush also sees duplicates) and the floors they promise,
    // which take effect only when the epoch's flush returns `Ok`.
    let mut epoch: Option<(Vec<u8>, [u64; 16])> = None;
    let mut next_value = 1u64;
    let mut crashed = false;

    let recover_and_check = |mem: &mut triad_nvm::core::SecureMemory,
                             written: &mut [u64; 16],
                             floor: &mut [u64; 16]|
     -> Result<(), String> {
        let report = mem.recover().map_err(|e| format!("recover: {e}"))?;
        if !report.persistent_recovered {
            return Err(format!("persistent region not recovered: {report:?}"));
        }
        for page in 0..16u8 {
            let data = mem
                .read(page_addr(page))
                .map_err(|e| format!("post-recovery read of page {page}: {e}"))?;
            let value = u64::from_le_bytes(data[..8].try_into().unwrap());
            if value < floor[page as usize] {
                return Err(format!(
                    "page {page}: rolled back below the persist floor: {value} < {}",
                    floor[page as usize]
                ));
            }
            if value > written[page as usize] {
                return Err(format!(
                    "page {page}: value {value} was never written (max {})",
                    written[page as usize]
                ));
            }
            // Whatever survived is the new baseline: unpersisted
            // cached writes above it are gone.
            floor[page as usize] = value;
            written[page as usize] = value;
        }
        Ok(())
    };

    for op in ops {
        if crashed {
            // Whatever crashed (an explicit crash, or an armed hook
            // inside a write, a pressure op or a flush), the epoch's
            // unflushed pages are gone with it.
            epoch = None;
            recover_and_check(&mut mem, &mut written, &mut floor)?;
            crashed = false;
        }
        match *op {
            Op::Write { page } => {
                let v = next_value;
                next_value += 1;
                match mem.write(page_addr(page), &v.to_le_bytes()) {
                    Ok(()) => written[page as usize] = v,
                    Err(SecureMemoryError::NeedsRecovery) => {
                        // An armed crash fired inside an eviction's
                        // atomic persist; the write is lost.
                        crashed = true;
                    }
                    Err(e) => return Err(format!("{e}")),
                }
            }
            Op::Persist { page } => {
                if let Some((pages, promised)) = &mut epoch {
                    // Deferred: durable only at the epoch's flush.
                    pages.push(page);
                    promised[page as usize] = written[page as usize];
                    continue;
                }
                match mem.persist(page_addr(page)) {
                    Ok(()) => floor[page as usize] = written[page as usize],
                    Err(SecureMemoryError::NeedsRecovery) => {
                        // Crash mid-protocol: the staged update is
                        // replayed at recovery, so the persist is
                        // still durable.
                        floor[page as usize] = written[page as usize];
                        crashed = true;
                    }
                    Err(e) => return Err(format!("{e}")),
                }
            }
            Op::BeginEpoch => {
                if epoch.is_none() {
                    epoch = Some((Vec::new(), floor));
                }
            }
            Op::EndEpoch => {
                // Random histories close epochs they never opened.
                let Some((pages, promised)) = epoch.take() else {
                    continue;
                };
                let blocks: Vec<_> = pages.iter().map(|&page| page_addr(page).block()).collect();
                match mem.flush_batch(&blocks, Time::ZERO) {
                    Ok(_) => floor = promised,
                    Err(SecureMemoryError::NeedsRecovery) => {
                        // Crash during the flush: each member either
                        // persisted or not — floors cannot be
                        // promised, keep the old ones.
                        crashed = true;
                    }
                    Err(e) => return Err(format!("{e}")),
                }
            }
            Op::Pressure { seed } => {
                let len = mem.persistent_region().len_bytes();
                for i in 0..40u64 {
                    let addr = PhysAddr(
                        p.0 + 16 * 4096 + ((seed as u64 * 131 + i * 37) * 4096) % (len - 17 * 4096),
                    );
                    match mem.write(addr, b"pressure") {
                        Ok(()) => {}
                        Err(SecureMemoryError::NeedsRecovery) => {
                            crashed = true;
                            break;
                        }
                        Err(e) => return Err(format!("{e}")),
                    }
                }
            }
            Op::Crash => {
                mem.crash();
                crashed = true;
            }
            Op::TamperedPersist { page, level } => {
                let layout = mem.memory_map().persistent();
                let leaf = layout.leaf_index(layout.counter_block_of(page_addr(page).block()));
                let index = leaf / layout.geometry.arity().pow(u32::from(level));
                let Some(node) = layout.bmt_node_addr(level, index) else {
                    continue;
                };
                let mut mask = [0u8; 64];
                mask[0] = 1;
                mem.nvm_image_mut().tamper(node, mask);
                let flipped = mem.nvm_image().read(node);
                let named = SecureMemoryError::IntegrityViolation {
                    kind: IntegrityKind::BmtNode,
                    block: node,
                };
                // A whole block stores before any write-back the call
                // runs, so a write that fails has stored its value.
                let v = next_value;
                next_value += 1;
                let mut block = [0u8; 64];
                block[..8].copy_from_slice(&v.to_le_bytes());
                match mem.write(page_addr(page), &block) {
                    Ok(()) => written[page as usize] = v,
                    Err(e) if e == named => written[page as usize] = v,
                    Err(SecureMemoryError::NeedsRecovery) => crashed = true,
                    Err(e) => return Err(format!("tampered write of page {page}: {e}")),
                }
                if !crashed {
                    match mem.persist(page_addr(page)) {
                        Ok(()) => floor[page as usize] = written[page as usize],
                        Err(SecureMemoryError::NeedsRecovery) => {
                            floor[page as usize] = written[page as usize];
                            crashed = true;
                        }
                        Err(e) if e == named => {}
                        Err(e) => return Err(format!("tampered persist of page {page}: {e}")),
                    }
                }
                if mem.nvm_image().read(node) == flipped {
                    mem.nvm_image_mut().tamper(node, mask);
                }
            }
            Op::ArmCrash { n } => {
                // Re-arming replaces a hook that has not fired yet.
                mem.disarm_crash_hooks();
                mem.arm_crash(CrashHookKind::WpqWrite, n as u64)
                    .map_err(|e| format!("{e}"))?;
            }
        }
    }
    if crashed {
        recover_and_check(&mut mem, &mut written, &mut floor)?;
    }
    // Final sanity: one more clean crash/recover cycle.
    mem.crash();
    recover_and_check(&mut mem, &mut written, &mut floor)?;
    Ok(())
}
