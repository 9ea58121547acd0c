//! On-chip persistent registers (§3.3.5).
//!
//! Modern persistence-domain hardware (ADR) lets a handful of on-chip
//! registers survive power loss — either true NVM registers or volatile
//! registers flushed on the power-fail interrupt. Triad-NVM keeps here:
//!
//! * the two BMT **root nodes** (persistent / non-persistent region),
//! * the **session counter** (§3.3.2),
//! * a **staging log + READY_BIT**: before a write's updates are copied
//!   into the WPQ they are logged here, so a crash mid-copy can be
//!   replayed at recovery instead of leaving data and metadata torn.
//!   A scalar persist logs its update set whole with
//!   [`PersistentRegisters::stage`]; an open batch grows one logged set
//!   in place, write by write (`crate::batch`), so the registers hold
//!   the only copy of the batch's merged writes.

use triad_mem::store::Block;
use triad_meta::bmt::NodeBuf;
use triad_sim::BlockAddr;

/// One staged NVM write (part of an atomic update set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedWrite {
    /// Destination block.
    pub addr: BlockAddr,
    /// Bytes to write.
    pub data: Block,
}

/// The atomic update set for one persisted data write: data block,
/// counter block, MAC block and the strictly persisted BMT nodes, plus
/// the new root-register values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StagedUpdate {
    /// All NVM writes this update must perform.
    pub writes: Vec<StagedWrite>,
    /// New persistent-region root node (if the update changes it).
    pub new_persistent_root: Option<NodeBuf>,
}

/// The persistent register file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistentRegisters {
    /// Root node of the persistent region's BMT.
    pub persistent_root: NodeBuf,
    /// Root node of the non-persistent region's BMT.
    pub non_persistent_root: NodeBuf,
    /// Session counter: 0 is reserved for persistent data; the current
    /// boot session (≥ 1) is used for non-persistent data IVs.
    pub session: u32,
    /// Staged update awaiting its WPQ copy. `Some` ⇔ READY_BIT set.
    staged: Option<StagedUpdate>,
}

impl Default for PersistentRegisters {
    fn default() -> Self {
        PersistentRegisters {
            persistent_root: NodeBuf::zeroed(),
            non_persistent_root: NodeBuf::zeroed(),
            session: 1,
            staged: None,
        }
    }
}

impl PersistentRegisters {
    /// Fresh register file (first boot, session 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether READY_BIT is set (a staged update has not finished its
    /// WPQ copy).
    pub fn ready_bit(&self) -> bool {
        self.staged.is_some()
    }

    /// Logs an update set and sets READY_BIT.
    pub fn stage(&mut self, update: StagedUpdate) {
        self.staged = Some(update);
    }

    /// The logged update, while READY_BIT is set.
    pub(crate) fn staged(&self) -> Option<&StagedUpdate> {
        self.staged.as_ref()
    }

    /// The logged update for in-place extension, setting READY_BIT
    /// (with an empty update) if it was clear.
    pub(crate) fn staged_mut(&mut self) -> &mut StagedUpdate {
        self.staged.get_or_insert_with(StagedUpdate::default)
    }

    /// Clears READY_BIT after a completed WPQ copy.
    pub fn commit(&mut self) {
        self.staged = None;
    }

    /// Takes the staged update for replay at recovery (clears
    /// READY_BIT).
    pub fn take_staged(&mut self) -> Option<StagedUpdate> {
        self.staged.take()
    }

    /// Number of register slots a staged update of `writes` NVM writes
    /// occupies (for the paper's "TriadNVM-2 needs 5 registers"
    /// accounting: one per staged write plus one for the root).
    pub fn slots_for(writes: usize) -> usize {
        writes + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_registers() {
        let r = PersistentRegisters::new();
        assert_eq!(r.session, 1);
        assert!(!r.ready_bit());
        assert!(r.persistent_root.is_zeroed());
    }

    #[test]
    fn stage_commit_cycle() {
        let mut r = PersistentRegisters::new();
        r.stage(StagedUpdate {
            writes: vec![StagedWrite {
                addr: BlockAddr(1),
                data: [1; 64],
            }],
            new_persistent_root: None,
        });
        assert!(r.ready_bit());
        r.commit();
        assert!(!r.ready_bit());
        assert!(r.take_staged().is_none());
    }

    #[test]
    fn take_staged_returns_update_once() {
        let mut r = PersistentRegisters::new();
        let u = StagedUpdate {
            writes: vec![],
            new_persistent_root: Some(NodeBuf::zeroed()),
        };
        r.stage(u.clone());
        assert_eq!(r.take_staged(), Some(u));
        assert_eq!(r.take_staged(), None);
        assert!(!r.ready_bit());
    }

    #[test]
    fn staged_mut_extends_the_logged_update_in_place() {
        let mut r = PersistentRegisters::new();
        r.staged_mut().writes.push(StagedWrite {
            addr: BlockAddr(1),
            data: [1; 64],
        });
        assert!(r.ready_bit(), "extending an empty log sets READY_BIT");
        r.staged_mut().writes[0].data = [2; 64];
        assert_eq!(r.staged().map(|u| u.writes[0].data), Some([2; 64]));
        r.commit();
        assert!(r.staged().is_none());
    }

    #[test]
    fn slot_accounting_matches_paper_example() {
        // TriadNVM-2 persists data + counter + MAC + 1 node = 4 writes
        // → 5 registers, the figure quoted in §3.3.5.
        assert_eq!(PersistentRegisters::slots_for(4), 5);
    }
}
