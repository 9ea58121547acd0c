//! Shared crash-consistency machinery: the operation vocabulary and the
//! model-checked history interpreter used by both the seeded property
//! suite (`property_crash.rs`) and the checked-in regression histories
//! (`regression_triad2_persist_floor.rs`).

use triad_nvm::core::{
    CounterPersistence, CrashHookKind, PersistScheme, SecureMemoryBuilder, SecureMemoryError,
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
    /// Persist page `page` (clwb + sfence).
    Persist { page: u8 },
    /// Touch many other pages to force evictions.
    Pressure { seed: u8 },
    /// Clean power loss + recovery.
    Crash,
    /// Arm a crash after `n` WPQ copies inside a future atomic persist.
    ArmCrash { n: u8 },
    /// Open an epoch (deferred persists) if none is open.
    BeginEpoch,
    /// Close the epoch, making its deferred persists durable.
    EndEpoch,
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
    // Floors promised by persists inside a still-open epoch: they
    // only take effect at the epoch boundary.
    let mut epoch_floor: Option<[u64; 16]> = None;
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
            Op::Persist { page } => match mem.persist(page_addr(page)) {
                Ok(()) => match &mut epoch_floor {
                    // Deferred: durable only at end_epoch.
                    Some(pending) => pending[page as usize] = written[page as usize],
                    None => floor[page as usize] = written[page as usize],
                },
                Err(SecureMemoryError::NeedsRecovery) => {
                    // Crash mid-protocol: the staged update is
                    // replayed at recovery, so the persist is
                    // still durable (never happens inside an
                    // epoch, where persists defer instead).
                    if epoch_floor.is_none() {
                        floor[page as usize] = written[page as usize];
                    }
                    crashed = true;
                    epoch_floor = None;
                }
                Err(e) => return Err(format!("{e}")),
            },
            Op::BeginEpoch => {
                if !mem.epoch_open() {
                    mem.begin_epoch().map_err(|e| format!("{e}"))?;
                    epoch_floor = Some(floor);
                }
            }
            Op::EndEpoch => match mem.end_epoch(Time::ZERO) {
                Ok(_) => {
                    if let Some(pending) = epoch_floor.take() {
                        floor = pending;
                    }
                }
                Err(SecureMemoryError::NeedsRecovery) => {
                    // Crash during the boundary flush: each
                    // member either persisted or not — floors
                    // cannot be promised, keep the old ones.
                    crashed = true;
                    epoch_floor = None;
                }
                // Random histories close epochs they never opened;
                // the typed rejection leaves the engine untouched.
                Err(SecureMemoryError::EpochNotOpen) => {}
                Err(e) => return Err(format!("{e}")),
            },
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
                epoch_floor = None; // deferred persists are lost
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
