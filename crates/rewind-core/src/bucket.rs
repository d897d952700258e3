//! Bucketed log storage (the Optimized and Batch variants of Section 3.3).
//!
//! Appending one node per record to the ADLL costs several non-temporal
//! stores and fences per record. The optimized layout instead blocks record
//! *pointers* into fixed-size buckets (arrays in NVM); the ADLL then only
//! grows bucket-by-bucket, amortising the cost of atomic expansion. Placing a
//! record becomes a single word write into the current bucket's next free
//! cell.
//!
//! Removal does not shift cells: a removed record leaves a *gap marker* so
//! that removal is a single atomic write as well; a bucket whose every used
//! cell is a gap is unlinked from the ADLL. Bucket occupancy and the next
//! insert position are volatile and are reconstructed during the analysis
//! phase after a crash, exactly as the paper describes.
//!
//! Each bucket owns the records its cells point to: one allocation holds
//! the header, the cells and, cacheline-aligned after them, one record slot
//! per cell (cell `i`'s record lives in slot `i`). Appending a record then
//! needs no allocation of its own, a group persist flushes one contiguous
//! record range, and dropping a bucket returns all its records at once.
//!
//! The Batch variant adds the "multiple log records per cacheline"
//! optimisation: record pointers are written with ordinary stores and only
//! every `group_size` records (or on a bucket boundary, or when an END record
//! is logged) does the log issue one flush + fence and then advance the
//! bucket's persistent watermark (`last_persistent`) with a single
//! non-temporal store. Recovery trusts only the cells below the watermark.

use crate::record::RECORD_SIZE;
use crate::Result;
use rewind_nvm::{NvmPool, PAddr};
use std::sync::Arc;

/// Cell value marking a cleared (removed) record.
pub const GAP: u64 = u64::MAX;

/// Bucket header words before the cells begin.
const BUCKET_HEADER_WORDS: u64 = 2;
const OFF_CAPACITY: u64 = 0;
const OFF_LAST_PERSISTENT: u64 = 1;

/// A fixed-size array of record-pointer cells in NVM, followed by the
/// record slots the cells point to.
///
/// Layout: `capacity, last_persistent, cell[0], cell[1], ...`, then (from
/// the next cacheline) `record[0], record[1], ...`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// Address of the bucket in NVM.
    pub addr: PAddr,
}

impl Bucket {
    /// Bytes of the header and cells of a bucket with `capacity` cells.
    pub fn byte_size(capacity: usize) -> usize {
        (BUCKET_HEADER_WORDS as usize + capacity) * 8
    }

    /// Bytes of the whole allocation behind a bucket: header, cells and the
    /// cacheline-aligned record slots.
    pub fn alloc_size(capacity: usize) -> usize {
        Self::records_offset(capacity) + capacity * RECORD_SIZE
    }

    fn records_offset(capacity: usize) -> usize {
        Self::byte_size(capacity).div_ceil(RECORD_SIZE) * RECORD_SIZE
    }

    /// Allocates and formats a new bucket with `capacity` zeroed cells.
    ///
    /// The zero-fill uses ordinary stores followed by a single flush of the
    /// cell range: a fresh bucket only becomes reachable once the ADLL
    /// append that links it in persists, and that append fences first. The
    /// record slots need no formatting: a slot is written before the cell
    /// that points at it.
    pub fn create(pool: &Arc<NvmPool>, capacity: usize) -> Result<Bucket> {
        let addr = pool.alloc(Self::alloc_size(capacity))?;
        pool.write_u64(addr.word(OFF_CAPACITY), capacity as u64);
        pool.write_u64(addr.word(OFF_LAST_PERSISTENT), 0);
        for i in 0..capacity as u64 {
            pool.write_u64(addr.word(BUCKET_HEADER_WORDS + i), 0);
        }
        pool.clflush_range(addr, Self::byte_size(capacity));
        Ok(Bucket { addr })
    }

    /// Attaches to an existing bucket.
    pub fn attach(addr: PAddr) -> Bucket {
        Bucket { addr }
    }

    /// Number of cells in this bucket.
    pub fn capacity(&self, pool: &NvmPool) -> usize {
        pool.read_u64(self.addr.word(OFF_CAPACITY)) as usize
    }

    /// Persistent watermark: cells `< last_persistent` are guaranteed to be
    /// persistent (Batch variant only; the Optimized variant persists each
    /// cell as it is written and ignores the watermark).
    pub fn last_persistent(&self, pool: &NvmPool) -> usize {
        pool.read_u64(self.addr.word(OFF_LAST_PERSISTENT)) as usize
    }

    /// Address of cell `idx`.
    pub fn cell_addr(&self, idx: usize) -> PAddr {
        self.addr.word(BUCKET_HEADER_WORDS + idx as u64)
    }

    /// Address of the record slot of cell `idx` in a bucket of `capacity`
    /// cells.
    pub fn record_addr(&self, capacity: usize, idx: usize) -> PAddr {
        self.addr
            .add((Self::records_offset(capacity) + idx * RECORD_SIZE) as u64)
    }

    /// Reads cell `idx` (0 = empty, [`GAP`] = cleared, otherwise a record
    /// address).
    pub fn cell(&self, pool: &NvmPool, idx: usize) -> u64 {
        pool.read_u64(self.cell_addr(idx))
    }

    /// Writes a record pointer into cell `idx` with a single non-temporal
    /// store (Optimized variant: the insert is atomic and immediately
    /// persistent).
    pub fn set_cell_nt(&self, pool: &NvmPool, idx: usize, record: PAddr) {
        pool.write_u64_nt(self.cell_addr(idx), record.offset());
    }

    /// Writes a record pointer into cell `idx` with an ordinary store (Batch
    /// variant: persistence is deferred to the group flush).
    pub fn set_cell(&self, pool: &NvmPool, idx: usize, record: PAddr) {
        pool.write_u64(self.cell_addr(idx), record.offset());
    }

    /// Marks cell `idx` as a gap (record cleared). A single non-temporal
    /// store, atomic with respect to failure.
    pub fn clear_cell(&self, pool: &NvmPool, idx: usize) {
        pool.write_u64_nt(self.cell_addr(idx), GAP);
    }

    /// Marks cells `[from, to)` as gaps, in cell order — one non-temporal
    /// store per cell, like [`Bucket::clear_cell`].
    pub fn clear_cells(&self, pool: &NvmPool, from: usize, to: usize) {
        for idx in from..to {
            self.clear_cell(pool, idx);
        }
    }

    /// Flushes the cachelines covering cells `[from, to)` of a bucket of
    /// `capacity` cells and the record slots they point to, fences once,
    /// and advances the persistent watermark to `to`. This is the Batch
    /// variant's group-persist step: one fence and one non-temporal store
    /// cover up to `group_size` records.
    pub fn persist_group(&self, pool: &NvmPool, capacity: usize, from: usize, to: usize) {
        if to <= from {
            return;
        }
        // Flush the record payloads first, then the cells pointing at them.
        pool.clflush_range(self.record_addr(capacity, from), (to - from) * RECORD_SIZE);
        pool.clflush_range(self.cell_addr(from), (to - from) * 8);
        pool.sfence();
        pool.write_u64_nt(self.addr.word(OFF_LAST_PERSISTENT), to as u64);
    }

    /// Scans the bucket and returns `(next_free, live_records)`:
    /// the index one past the last used cell, and the number of cells that
    /// hold a live (non-gap) record. Used during the analysis phase to
    /// reconstruct the volatile insert position and occupancy counts.
    ///
    /// `trust_watermark` restricts the scan to cells below the persistent
    /// watermark (Batch variant after a crash).
    pub fn reconstruct(&self, pool: &NvmPool, trust_watermark: bool) -> (usize, usize) {
        let capacity = self.capacity(pool);
        let limit = if trust_watermark {
            self.last_persistent(pool).min(capacity)
        } else {
            capacity
        };
        let mut next_free = 0;
        let mut live = 0;
        for idx in 0..limit {
            let v = self.cell(pool, idx);
            if v != 0 {
                next_free = idx + 1;
                if v != GAP {
                    live += 1;
                }
            }
        }
        (next_free, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogRecord, RECORD_SIZE};
    use rewind_nvm::PoolConfig;

    fn pool() -> Arc<NvmPool> {
        NvmPool::new(PoolConfig::small())
    }

    fn make_record(pool: &Arc<NvmPool>, lsn: u64) -> PAddr {
        let addr = pool.alloc(RECORD_SIZE).unwrap();
        LogRecord::update(lsn, 1, PAddr::new(0x100), 0, lsn).write_to_nt(pool, addr);
        addr
    }

    #[test]
    fn create_and_capacity() {
        let p = pool();
        let b = Bucket::create(&p, 10).unwrap();
        assert_eq!(b.capacity(&p), 10);
        assert_eq!(b.last_persistent(&p), 0);
        for i in 0..10 {
            assert_eq!(b.cell(&p, i), 0);
        }
        assert_eq!(Bucket::byte_size(10), 96);
    }

    #[test]
    fn nt_cell_writes_are_persistent_immediately() {
        let p = pool();
        let b = Bucket::create(&p, 4).unwrap();
        let r = make_record(&p, 1);
        b.set_cell_nt(&p, 0, r);
        p.power_cycle();
        let b = Bucket::attach(b.addr);
        assert_eq!(b.cell(&p, 0), r.offset());
    }

    #[test]
    fn regular_cell_writes_need_the_group_persist() {
        let p = pool();
        let b = Bucket::create(&p, 8).unwrap();
        p.flush_all(); // make the formatted bucket durable
        let r0 = make_record(&p, 1);
        let r1 = make_record(&p, 2);
        b.set_cell(&p, 0, r0);
        b.set_cell(&p, 1, r1);
        // Without a group persist both cells are lost.
        p.power_cycle();
        assert_eq!(b.cell(&p, 0), 0);
        assert_eq!(b.cell(&p, 1), 0);
        // With a group persist they survive, and the watermark advances.
        let r0 = make_record(&p, 1);
        let r1 = make_record(&p, 2);
        b.set_cell(&p, 0, r0);
        b.set_cell(&p, 1, r1);
        b.persist_group(&p, 8, 0, 2);
        p.power_cycle();
        assert_eq!(b.cell(&p, 0), r0.offset());
        assert_eq!(b.cell(&p, 1), r1.offset());
        assert_eq!(b.last_persistent(&p), 2);
    }

    #[test]
    fn group_persist_costs_one_fence_for_many_records() {
        let p = pool();
        let b = Bucket::create(&p, 8).unwrap();
        let records: Vec<PAddr> = (0..8).map(|i| make_record(&p, i)).collect();
        for (i, r) in records.iter().enumerate() {
            b.set_cell(&p, i, *r);
        }
        let before = p.stats();
        b.persist_group(&p, 8, 0, 8);
        let d = p.stats().since(&before);
        assert_eq!(d.fences, 1, "one fence per group");
        assert_eq!(d.nt_stores, 1, "one watermark store per group");
    }

    #[test]
    fn reconstruct_counts_gaps_and_finds_insert_position() {
        let p = pool();
        let b = Bucket::create(&p, 8).unwrap();
        for i in 0..5 {
            let r = make_record(&p, i as u64);
            b.set_cell_nt(&p, i, r);
        }
        b.clear_cell(&p, 1);
        b.clear_cell(&p, 4);
        let (next_free, live) = b.reconstruct(&p, false);
        assert_eq!(next_free, 5);
        assert_eq!(live, 3);
    }

    #[test]
    fn reconstruct_with_watermark_ignores_unpersisted_tail() {
        let p = pool();
        let b = Bucket::create(&p, 8).unwrap();
        for i in 0..6 {
            let r = make_record(&p, i as u64);
            b.set_cell(&p, i, r);
        }
        b.persist_group(&p, 8, 0, 4);
        // Cells 4 and 5 were written but never covered by a group persist.
        let (next_free, live) = b.reconstruct(&p, true);
        assert_eq!(next_free, 4);
        assert_eq!(live, 4);
        // Without trusting the watermark the scan sees all six.
        let (next_free, live) = b.reconstruct(&p, false);
        assert_eq!(next_free, 6);
        assert_eq!(live, 6);
    }

    #[test]
    fn clear_cell_is_durable() {
        let p = pool();
        let b = Bucket::create(&p, 4).unwrap();
        let r = make_record(&p, 7);
        b.set_cell_nt(&p, 0, r);
        b.clear_cell(&p, 0);
        p.power_cycle();
        assert_eq!(b.cell(&p, 0), GAP);
    }
}
