//! Log records.
//!
//! REWIND uses physical logging: every record describes one word-granular
//! update (old value, new value, target address) plus the ARIES-style
//! bookkeeping fields (LSN, transaction id, record type, per-transaction
//! back-chain and, for compensation records, the address of the next record
//! to undo). A record occupies exactly one cacheline (64 bytes / 8 words) in
//! NVM so that writing it never straddles lines.

use crate::{Result, RewindError};
use rewind_nvm::{NvmPool, PAddr};

/// Size of a serialized log record in bytes (one cacheline).
pub const RECORD_SIZE: usize = 64;

/// The kind of a log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// A physical update of one 8-byte word of user data.
    Update,
    /// A compensation log record written while undoing an `Update`.
    Clr,
    /// Marks the completion of a commit or of a rollback.
    End,
    /// Deferred de-allocation of a block of persistent memory.
    Delete,
    /// Marks a cache-consistent checkpoint (no-force policy). Checkpoints
    /// themselves truncate up to the log's append frontier and write none;
    /// a marker found in a log belongs to no transaction and goes with the
    /// next truncation.
    Checkpoint,
    /// Marks the start of a rollback (written by recovery when it finds an
    /// unfinished transaction, so that a crash during recovery resumes the
    /// rollback instead of restarting it).
    Rollback,
    /// Marks a transaction as *prepared* in a two-phase commit: all of its
    /// updates are durably logged and the transaction may neither commit nor
    /// roll back until the coordinator's decision is known. The record
    /// carries the coordinator's global transaction id so recovery can match
    /// an in-doubt local transaction to a persisted commit decision.
    Prepare,
}

impl RecordType {
    fn to_u64(self) -> u64 {
        match self {
            RecordType::Update => 1,
            RecordType::Clr => 2,
            RecordType::End => 3,
            RecordType::Delete => 4,
            RecordType::Checkpoint => 5,
            RecordType::Rollback => 6,
            RecordType::Prepare => 7,
        }
    }

    fn from_u64(v: u64) -> Result<Self> {
        Ok(match v {
            1 => RecordType::Update,
            2 => RecordType::Clr,
            3 => RecordType::End,
            4 => RecordType::Delete,
            5 => RecordType::Checkpoint,
            6 => RecordType::Rollback,
            7 => RecordType::Prepare,
            other => {
                return Err(RewindError::CorruptLog(format!(
                    "unknown record type {other}"
                )))
            }
        })
    }
}

/// An in-memory (volatile) view of one log record.
///
/// The persistent layout is eight consecutive 8-byte words:
/// `lsn, txid, type, addr, old, new, undo_next, prev`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// Log sequence number; unique and monotonically increasing.
    pub lsn: u64,
    /// Transaction that produced the record.
    pub txid: u64,
    /// Record type.
    pub rtype: RecordType,
    /// Target persistent address (UPDATE/CLR: the word updated; DELETE: the
    /// block to free).
    pub addr: PAddr,
    /// Before-image (UPDATE), or the block size (DELETE).
    pub old: u64,
    /// After-image (UPDATE), or the value restored by a CLR.
    pub new: u64,
    /// For CLRs: persistent address of the next record of this transaction to
    /// undo (the paper's `undoNextLogID`). Null otherwise.
    pub undo_next: PAddr,
    /// Persistent address of the previous record of the same transaction
    /// (back-chain, maintained by the two-layer configuration). Null when the
    /// one-layer configuration does not track it.
    pub prev: PAddr,
}

impl LogRecord {
    /// Creates an UPDATE record.
    pub fn update(lsn: u64, txid: u64, addr: PAddr, old: u64, new: u64) -> Self {
        LogRecord {
            lsn,
            txid,
            rtype: RecordType::Update,
            addr,
            old,
            new,
            undo_next: PAddr::NULL,
            prev: PAddr::NULL,
        }
    }

    /// Creates a CLR that restores `restored` at `addr` and points at the
    /// next record to undo.
    pub fn clr(lsn: u64, txid: u64, addr: PAddr, restored: u64, undo_next: PAddr) -> Self {
        LogRecord {
            lsn,
            txid,
            rtype: RecordType::Clr,
            addr,
            old: 0,
            new: restored,
            undo_next,
            prev: PAddr::NULL,
        }
    }

    /// Creates an END record for `txid`.
    pub fn end(lsn: u64, txid: u64) -> Self {
        LogRecord {
            lsn,
            txid,
            rtype: RecordType::End,
            addr: PAddr::NULL,
            old: 0,
            new: 0,
            undo_next: PAddr::NULL,
            prev: PAddr::NULL,
        }
    }

    /// Creates a DELETE (deferred de-allocation) record for `size` bytes at
    /// `addr`.
    pub fn delete(lsn: u64, txid: u64, addr: PAddr, size: u64) -> Self {
        LogRecord {
            lsn,
            txid,
            rtype: RecordType::Delete,
            addr,
            old: size,
            new: 0,
            undo_next: PAddr::NULL,
            prev: PAddr::NULL,
        }
    }

    /// Creates a CHECKPOINT record.
    pub fn checkpoint(lsn: u64) -> Self {
        LogRecord {
            lsn,
            txid: 0,
            rtype: RecordType::Checkpoint,
            addr: PAddr::NULL,
            old: 0,
            new: 0,
            undo_next: PAddr::NULL,
            prev: PAddr::NULL,
        }
    }

    /// Creates a PREPARE record for `txid`, carrying the coordinator's
    /// global transaction id (stored in the `old` field).
    pub fn prepare(lsn: u64, txid: u64, gtid: u64) -> Self {
        LogRecord {
            lsn,
            txid,
            rtype: RecordType::Prepare,
            addr: PAddr::NULL,
            old: gtid,
            new: 0,
            undo_next: PAddr::NULL,
            prev: PAddr::NULL,
        }
    }

    /// The coordinator's global transaction id carried by a PREPARE record.
    pub fn gtid(&self) -> u64 {
        debug_assert_eq!(self.rtype, RecordType::Prepare);
        self.old
    }

    /// Creates a ROLLBACK marker for `txid`.
    pub fn rollback(lsn: u64, txid: u64) -> Self {
        LogRecord {
            lsn,
            txid,
            rtype: RecordType::Rollback,
            addr: PAddr::NULL,
            old: 0,
            new: 0,
            undo_next: PAddr::NULL,
            prev: PAddr::NULL,
        }
    }

    /// Returns `true` for record types that terminate a transaction's undo
    /// work (END).
    pub fn finishes_transaction(&self) -> bool {
        self.rtype == RecordType::End
    }

    /// Whether this record describes work that must be undone when the
    /// transaction aborts.
    pub fn is_undoable(&self) -> bool {
        self.rtype == RecordType::Update
    }

    /// Serializes the record into NVM at `addr` using ordinary stores (the
    /// caller decides how to persist it: flush + fence, or the Batch group
    /// protocol).
    pub fn write_to(&self, pool: &NvmPool, addr: PAddr) {
        pool.write_u64(addr.word(0), self.lsn);
        pool.write_u64(addr.word(1), self.txid);
        pool.write_u64(addr.word(2), self.rtype.to_u64());
        pool.write_u64(addr.word(3), self.addr.offset());
        pool.write_u64(addr.word(4), self.old);
        pool.write_u64(addr.word(5), self.new);
        pool.write_u64(addr.word(6), self.undo_next.offset());
        pool.write_u64(addr.word(7), self.prev.offset());
    }

    /// Serializes the record into NVM at `addr` using non-temporal stores
    /// (persistent immediately; used by the Simple and Optimized logs).
    pub fn write_to_nt(&self, pool: &NvmPool, addr: PAddr) {
        pool.write_u64_nt(addr.word(0), self.lsn);
        pool.write_u64_nt(addr.word(1), self.txid);
        pool.write_u64_nt(addr.word(2), self.rtype.to_u64());
        pool.write_u64_nt(addr.word(3), self.addr.offset());
        pool.write_u64_nt(addr.word(4), self.old);
        pool.write_u64_nt(addr.word(5), self.new);
        pool.write_u64_nt(addr.word(6), self.undo_next.offset());
        pool.write_u64_nt(addr.word(7), self.prev.offset());
    }

    /// The block a DELETE record at `addr` defers freeing, as `(block,
    /// size)`, or `None` for any other record type. Reads one word unless
    /// the record is a DELETE — all log truncation needs from most records.
    pub(crate) fn deferred_free_at(pool: &NvmPool, addr: PAddr) -> Result<Option<(PAddr, usize)>> {
        if RecordType::from_u64(pool.read_u64(addr.word(2)))? != RecordType::Delete {
            return Ok(None);
        }
        Ok(Some((
            PAddr::new(pool.read_u64(addr.word(3))),
            pool.read_u64(addr.word(4)) as usize,
        )))
    }

    /// Deserializes a record from NVM (volatile view).
    pub fn read_from(pool: &NvmPool, addr: PAddr) -> Result<Self> {
        Ok(LogRecord {
            lsn: pool.read_u64(addr.word(0)),
            txid: pool.read_u64(addr.word(1)),
            rtype: RecordType::from_u64(pool.read_u64(addr.word(2)))?,
            addr: PAddr::new(pool.read_u64(addr.word(3))),
            old: pool.read_u64(addr.word(4)),
            new: pool.read_u64(addr.word(5)),
            undo_next: PAddr::new(pool.read_u64(addr.word(6))),
            prev: PAddr::new(pool.read_u64(addr.word(7))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rewind_nvm::PoolConfig;

    #[test]
    fn record_type_roundtrip() {
        for t in [
            RecordType::Update,
            RecordType::Clr,
            RecordType::End,
            RecordType::Delete,
            RecordType::Checkpoint,
            RecordType::Rollback,
            RecordType::Prepare,
        ] {
            assert_eq!(RecordType::from_u64(t.to_u64()).unwrap(), t);
        }
        assert!(RecordType::from_u64(0).is_err());
        assert!(RecordType::from_u64(99).is_err());
    }

    #[test]
    fn constructors_set_expected_fields() {
        let u = LogRecord::update(1, 7, PAddr::new(0x100), 3, 4);
        assert_eq!(u.rtype, RecordType::Update);
        assert!(u.is_undoable());
        assert!(!u.finishes_transaction());

        let c = LogRecord::clr(2, 7, PAddr::new(0x100), 3, PAddr::new(0x40));
        assert_eq!(c.new, 3);
        assert_eq!(c.undo_next, PAddr::new(0x40));
        assert!(!c.is_undoable());

        let e = LogRecord::end(3, 7);
        assert!(e.finishes_transaction());

        let d = LogRecord::delete(4, 7, PAddr::new(0x200), 64);
        assert_eq!(d.old, 64);

        assert_eq!(LogRecord::checkpoint(5).txid, 0);
        assert_eq!(LogRecord::rollback(6, 7).rtype, RecordType::Rollback);

        let p = LogRecord::prepare(7, 9, 0xfeed);
        assert_eq!(p.rtype, RecordType::Prepare);
        assert_eq!(p.gtid(), 0xfeed);
        assert!(!p.is_undoable());
        assert!(!p.finishes_transaction());
    }

    #[test]
    fn nvm_serialization_roundtrip() {
        let pool = NvmPool::new(PoolConfig::small());
        let addr = pool.alloc(RECORD_SIZE).unwrap();
        let rec = LogRecord {
            lsn: 42,
            txid: 9,
            rtype: RecordType::Clr,
            addr: PAddr::new(0x1000),
            old: 11,
            new: 22,
            undo_next: PAddr::new(0x2000),
            prev: PAddr::new(0x3000),
        };
        rec.write_to(&pool, addr);
        let back = LogRecord::read_from(&pool, addr).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn nt_serialization_survives_power_cycle() {
        let pool = NvmPool::new(PoolConfig::small());
        let addr = pool.alloc(RECORD_SIZE).unwrap();
        let rec = LogRecord::update(1, 2, PAddr::new(0x500), 10, 20);
        rec.write_to_nt(&pool, addr);
        pool.power_cycle();
        assert_eq!(LogRecord::read_from(&pool, addr).unwrap(), rec);
    }

    #[test]
    fn regular_serialization_lost_without_flush() {
        let pool = NvmPool::new(PoolConfig::small());
        let addr = pool.alloc(RECORD_SIZE).unwrap();
        LogRecord::update(1, 2, PAddr::new(0x500), 10, 20).write_to(&pool, addr);
        pool.power_cycle();
        // The record decodes as all-zero words, which is an invalid type.
        assert!(LogRecord::read_from(&pool, addr).is_err());
    }
}
