//! Crash-hook arming pins.
//!
//! The engine holds one armed crash hook at a time — the
//! persist-boundary hook or the WPQ-write hook — and `triad-recov`'s
//! harness composes a per-thread crash on top (whichever fires first
//! wins). Arming while a hook is armed is rejected; firing
//! disarms the hook, so it can never fire again after recovery.

use triad_core::{
    CrashHookKind, PersistScheme, SecureMemory, SecureMemoryBuilder, SecureMemoryError,
};

fn mem() -> SecureMemory {
    SecureMemoryBuilder::new()
        .scheme(PersistScheme::triad_nvm(2))
        .build()
        .unwrap()
}

#[test]
fn typed_arming_rejects_conflicting_rearm() {
    let mut m = mem();
    m.arm_crash(CrashHookKind::PersistBoundary, 3).unwrap();
    assert_eq!(
        m.arm_crash(CrashHookKind::WpqWrite, 1).unwrap_err(),
        SecureMemoryError::CrashHookArmed {
            existing: CrashHookKind::PersistBoundary,
            requested: CrashHookKind::WpqWrite,
        }
    );
    // Same-kind re-arm is rejected too: the typed API has no silent
    // overwrite at all.
    assert_eq!(
        m.arm_crash(CrashHookKind::PersistBoundary, 9).unwrap_err(),
        SecureMemoryError::CrashHookArmed {
            existing: CrashHookKind::PersistBoundary,
            requested: CrashHookKind::PersistBoundary,
        }
    );
    m.disarm_crash_hooks();
    assert_eq!(m.armed_crash_hook(), None);
    m.arm_crash(CrashHookKind::WpqWrite, 1).unwrap();
    assert_eq!(m.armed_crash_hook(), Some(CrashHookKind::WpqWrite));
}

#[test]
fn a_fired_hook_is_disarmed_and_can_be_rearmed() {
    for kind in [CrashHookKind::PersistBoundary, CrashHookKind::WpqWrite] {
        let mut m = mem();
        let a = m.persistent_region().start();
        m.arm_crash(kind, 0).unwrap();
        assert_eq!(m.armed_crash_hook(), Some(kind));
        m.write(a, &[7u8; 64]).unwrap();
        assert_eq!(m.persist(a).unwrap_err(), SecureMemoryError::NeedsRecovery);
        assert_eq!(m.armed_crash_hook(), None, "{kind}: firing disarms");
        m.recover().unwrap();
        // Nothing left to fire: plenty of further durability points
        // and atomic persists pass.
        for i in 0..16u64 {
            let b = triad_sim::PhysAddr(a.0 + i * 64);
            m.write(b, &[i as u8 + 1; 64]).unwrap();
            m.persist(b).unwrap();
        }
        assert_eq!(m.read(a).unwrap(), [1u8; 64]);
        // Re-arming needs no disarm, and the new hook fires.
        m.arm_crash(kind, 0).unwrap();
        m.write(a, &[8u8; 64]).unwrap();
        assert_eq!(m.persist(a).unwrap_err(), SecureMemoryError::NeedsRecovery);
    }
}

#[test]
fn crash_hook_error_displays() {
    let e = SecureMemoryError::CrashHookArmed {
        existing: CrashHookKind::WpqWrite,
        requested: CrashHookKind::PersistBoundary,
    };
    let msg = e.to_string();
    assert!(msg.contains("WPQ-write"), "{msg}");
    assert!(msg.contains("persist-boundary"), "{msg}");
    assert!(msg.contains("one hook at a time"), "{msg}");
}
