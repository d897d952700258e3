//! The Atomic AVL Tree (AAVLT) — the second layer of two-layer logging.
//!
//! One-layer logging finds the records of a specific transaction by scanning
//! the whole log, which degrades with the number of interleaved records from
//! other transactions ("skip records"). The two-layer configuration instead
//! indexes log records by transaction identifier in an AVL tree that lives in
//! NVM (Section 3.4 of the paper).
//!
//! The tree must itself be crash-consistent. Rebalancing performs a variable
//! number of pointer and height updates, so unlike the ADLL it cannot be made
//! atomic with a constant number of single-word writes. Instead, every write
//! that changes reachable tree state is *undo-logged* in a private
//! [`RecoverableLog`] (the bucketed ADLL of Section 3.3), applied with a
//! non-temporal store, and the undo entries are cleared once the operation
//! completes. At most one tree operation is ever in flight (operations are
//! serialized), so recovery only ever has to roll back a single unfinished
//! operation: it restores the logged before-images in reverse order — a
//! procedure that is idempotent and therefore safe to repeat if the system
//! fails again during recovery. De-allocation of removed nodes is deferred to
//! the end of the operation, as the paper requires.
//!
//! Clearing the undo entries of a *completed* operation takes several
//! persist events, so a persistent `done` word (next to the root cell) is
//! set before the clearing starts and reset after it: recovery discards
//! whatever entries a crash left behind while `done` is set instead of
//! rolling back part of an operation that already completed.
//!
//! Each tree node represents one transaction and anchors that transaction's
//! chain of log records (most recent first, linked through the records' `prev`
//! field), which is what gives the two-layer configuration its fast selective
//! rollback.

use crate::config::RewindConfig;
use crate::log::RecoverableLog;
use crate::record::LogRecord;
use crate::Result;
use parking_lot::Mutex;
use rewind_nvm::{NvmPool, PAddr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Size of one AVL node in NVM.
pub const AAVLT_NODE_SIZE: usize = 6 * 8;

const N_KEY: u64 = 0;
const N_LEFT: u64 = 1;
const N_RIGHT: u64 = 2;
const N_HEIGHT: u64 = 3;
const N_CHAIN: u64 = 4;
const N_COUNT: u64 = 5;

/// Transaction id used for the tree's own undo records in its private log.
const META_TXID: u64 = u64::MAX;

/// The Atomic AVL Tree.
#[derive(Debug)]
pub struct Aavlt {
    pool: Arc<NvmPool>,
    /// Private undo log for the tree's own structural updates.
    meta_log: RecoverableLog,
    /// Persistent cell holding the root node address; the word after it is
    /// the `done` flag of the operation whose undo entries are being
    /// cleared.
    root_cell: PAddr,
    /// Serializes tree operations: "every update to the AAVLT is only
    /// executed by a single thread" (Section 3.4).
    op_lock: Mutex<()>,
    meta_lsn: AtomicU64,
}

/// A pair of persistent addresses needed to re-attach an [`Aavlt`] after a
/// restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AavltRoot {
    /// The cell holding the tree root pointer.
    pub root_cell: PAddr,
    /// The ADLL header of the tree's private undo log.
    pub meta_log_header: PAddr,
}

impl Aavlt {
    /// Creates an empty tree (and its private undo log) in `pool`.
    pub fn create(pool: Arc<NvmPool>, cfg: &RewindConfig) -> Result<Self> {
        // The index's own log always uses the Optimized structure, as in the
        // paper ("we use the optimized version of the ADLL").
        let meta_cfg = RewindConfig {
            structure: crate::config::LogStructure::Optimized,
            ..*cfg
        };
        let meta_log = RecoverableLog::create(Arc::clone(&pool), &meta_cfg)?;
        let root_cell = pool.alloc(16)?;
        pool.write_u64_nt(root_cell, 0);
        pool.write_u64_nt(root_cell.word(1), 0);
        pool.sfence();
        Ok(Aavlt {
            pool,
            meta_log,
            root_cell,
            op_lock: Mutex::new(()),
            meta_lsn: AtomicU64::new(1),
        })
    }

    /// Re-attaches to an existing tree and rolls back any interrupted
    /// operation.
    pub fn attach(pool: Arc<NvmPool>, cfg: &RewindConfig, root: AavltRoot) -> Result<Self> {
        let meta_cfg = RewindConfig {
            structure: crate::config::LogStructure::Optimized,
            ..*cfg
        };
        let meta_log = RecoverableLog::attach(Arc::clone(&pool), &meta_cfg, root.meta_log_header)?;
        let tree = Aavlt {
            pool,
            meta_log,
            root_cell: root.root_cell,
            op_lock: Mutex::new(()),
            meta_lsn: AtomicU64::new(1),
        };
        tree.recover()?;
        Ok(tree)
    }

    /// The persistent addresses needed to re-attach this tree later.
    pub fn durable_root(&self) -> AavltRoot {
        AavltRoot {
            root_cell: self.root_cell,
            meta_log_header: self.meta_log.header(),
        }
    }

    /// Number of transactions currently indexed.
    pub fn len(&self) -> usize {
        self.txids().len()
    }

    /// Returns `true` if no transaction is indexed.
    pub fn is_empty(&self) -> bool {
        self.root().is_null()
    }

    fn root(&self) -> PAddr {
        PAddr::new(self.pool.read_u64(self.root_cell))
    }

    fn field(&self, node: PAddr, word: u64) -> u64 {
        self.pool.read_u64(node.word(word))
    }

    /// A logged, persistent write to reachable tree state: the before-image
    /// goes to the private undo log first, then the word is updated in place.
    fn logged_write(&self, addr: PAddr, new: u64) -> Result<()> {
        let old = self.pool.read_u64(addr);
        if old == new {
            return Ok(());
        }
        let lsn = self.meta_lsn.fetch_add(1, Ordering::Relaxed);
        let rec = LogRecord::update(lsn, META_TXID, addr, old, new);
        self.meta_log.append(&rec)?;
        self.pool.write_u64_nt(addr, new);
        Ok(())
    }

    /// Initialises a freshly allocated (unreachable) node; no logging needed.
    fn init_node(&self, node: PAddr, key: u64) {
        self.pool.write_u64_nt(node.word(N_KEY), key);
        self.pool.write_u64_nt(node.word(N_LEFT), 0);
        self.pool.write_u64_nt(node.word(N_RIGHT), 0);
        self.pool.write_u64_nt(node.word(N_HEIGHT), 1);
        self.pool.write_u64_nt(node.word(N_CHAIN), 0);
        self.pool.write_u64_nt(node.word(N_COUNT), 0);
    }

    /// Completes an operation: persist a fence, clear the undo entries and
    /// free nodes whose removal was deferred.
    fn finish_op(&self, deferred_free: &[PAddr]) -> Result<()> {
        self.pool.sfence();
        // The operation is complete: from here on recovery must discard the
        // undo entries, not apply them.
        self.pool.write_u64_nt(self.done_cell(), 1);
        self.pool.sfence();
        // Clearing one entry at a time keeps the private log tiny; the
        // operations below never interleave with another tree operation.
        self.clear_undo_entries()?;
        for node in deferred_free {
            self.pool.free(*node, AAVLT_NODE_SIZE)?;
        }
        Ok(())
    }

    /// Rolls back an interrupted tree operation, if any. Returns `true` if
    /// there was something to roll back. Idempotent.
    pub fn recover(&self) -> Result<bool> {
        let entries = self.meta_log.scan(true)?;
        let done = self.pool.read_u64(self.done_cell()) != 0;
        if entries.is_empty() && !done {
            return Ok(false);
        }
        if !done {
            for entry in entries.iter().rev() {
                self.pool.write_u64_nt(entry.record.addr, entry.record.old);
            }
            self.pool.sfence();
            self.pool.write_u64_nt(self.done_cell(), 1);
            self.pool.sfence();
        }
        self.clear_undo_entries()?;
        Ok(!done)
    }

    /// The persistent `done` flag (see the module documentation).
    fn done_cell(&self) -> PAddr {
        self.root_cell.word(1)
    }

    /// Clears every undo entry, then resets `done`. Only runs once the
    /// entries are obsolete (their operation completed or was rolled back)
    /// and `done` says so durably. The reset needs no fence of its own: the
    /// next operation's first undo entry is appended behind a fence.
    fn clear_undo_entries(&self) -> Result<()> {
        for entry in self.meta_log.scan(false)? {
            self.meta_log.clear_slot(entry.slot)?;
        }
        self.pool.write_u64_nt(self.done_cell(), 0);
        Ok(())
    }

    // ------------------------------------------------------------------
    // AVL mechanics (all reachable-state writes go through logged_write)
    // ------------------------------------------------------------------

    fn height(&self, node: PAddr) -> u64 {
        if node.is_null() {
            0
        } else {
            self.field(node, N_HEIGHT)
        }
    }

    fn update_height(&self, node: PAddr) -> Result<()> {
        let h = 1 + self
            .height(PAddr::new(self.field(node, N_LEFT)))
            .max(self.height(PAddr::new(self.field(node, N_RIGHT))));
        self.logged_write(node.word(N_HEIGHT), h)
    }

    fn balance_factor(&self, node: PAddr) -> i64 {
        self.height(PAddr::new(self.field(node, N_LEFT))) as i64
            - self.height(PAddr::new(self.field(node, N_RIGHT))) as i64
    }

    fn rotate_right(&self, y: PAddr) -> Result<PAddr> {
        let x = PAddr::new(self.field(y, N_LEFT));
        let t2 = self.field(x, N_RIGHT);
        self.logged_write(y.word(N_LEFT), t2)?;
        self.logged_write(x.word(N_RIGHT), y.offset())?;
        self.update_height(y)?;
        self.update_height(x)?;
        Ok(x)
    }

    fn rotate_left(&self, x: PAddr) -> Result<PAddr> {
        let y = PAddr::new(self.field(x, N_RIGHT));
        let t2 = self.field(y, N_LEFT);
        self.logged_write(x.word(N_RIGHT), t2)?;
        self.logged_write(y.word(N_LEFT), x.offset())?;
        self.update_height(x)?;
        self.update_height(y)?;
        Ok(y)
    }

    fn rebalance(&self, node: PAddr) -> Result<PAddr> {
        self.update_height(node)?;
        let bf = self.balance_factor(node);
        if bf > 1 {
            let left = PAddr::new(self.field(node, N_LEFT));
            if self.balance_factor(left) < 0 {
                let new_left = self.rotate_left(left)?;
                self.logged_write(node.word(N_LEFT), new_left.offset())?;
            }
            return self.rotate_right(node);
        }
        if bf < -1 {
            let right = PAddr::new(self.field(node, N_RIGHT));
            if self.balance_factor(right) > 0 {
                let new_right = self.rotate_right(right)?;
                self.logged_write(node.word(N_RIGHT), new_right.offset())?;
            }
            return self.rotate_left(node);
        }
        Ok(node)
    }

    fn find_node(&self, txid: u64) -> PAddr {
        let mut cur = self.root();
        while !cur.is_null() {
            let key = self.field(cur, N_KEY);
            if txid == key {
                return cur;
            }
            cur = PAddr::new(self.field(cur, if txid < key { N_LEFT } else { N_RIGHT }));
        }
        PAddr::NULL
    }

    fn insert_node(&self, subtree: PAddr, node: PAddr, key: u64) -> Result<PAddr> {
        if subtree.is_null() {
            return Ok(node);
        }
        let skey = self.field(subtree, N_KEY);
        if key < skey {
            let left = PAddr::new(self.field(subtree, N_LEFT));
            let new_left = self.insert_node(left, node, key)?;
            self.logged_write(subtree.word(N_LEFT), new_left.offset())?;
        } else {
            let right = PAddr::new(self.field(subtree, N_RIGHT));
            let new_right = self.insert_node(right, node, key)?;
            self.logged_write(subtree.word(N_RIGHT), new_right.offset())?;
        }
        self.rebalance(subtree)
    }

    fn min_node(&self, mut node: PAddr) -> PAddr {
        loop {
            let left = PAddr::new(self.field(node, N_LEFT));
            if left.is_null() {
                return node;
            }
            node = left;
        }
    }

    fn delete_node(
        &self,
        subtree: PAddr,
        key: u64,
        deferred_free: &mut Vec<PAddr>,
    ) -> Result<PAddr> {
        if subtree.is_null() {
            return Ok(PAddr::NULL);
        }
        let skey = self.field(subtree, N_KEY);
        if key < skey {
            let left = PAddr::new(self.field(subtree, N_LEFT));
            let new_left = self.delete_node(left, key, deferred_free)?;
            self.logged_write(subtree.word(N_LEFT), new_left.offset())?;
        } else if key > skey {
            let right = PAddr::new(self.field(subtree, N_RIGHT));
            let new_right = self.delete_node(right, key, deferred_free)?;
            self.logged_write(subtree.word(N_RIGHT), new_right.offset())?;
        } else {
            let left = PAddr::new(self.field(subtree, N_LEFT));
            let right = PAddr::new(self.field(subtree, N_RIGHT));
            if left.is_null() || right.is_null() {
                deferred_free.push(subtree);
                return Ok(if left.is_null() { right } else { left });
            }
            // Two children: move the in-order successor's payload into this
            // node, then delete the successor from the right subtree.
            let succ = self.min_node(right);
            self.logged_write(subtree.word(N_KEY), self.field(succ, N_KEY))?;
            self.logged_write(subtree.word(N_CHAIN), self.field(succ, N_CHAIN))?;
            self.logged_write(subtree.word(N_COUNT), self.field(succ, N_COUNT))?;
            let succ_key = self.field(succ, N_KEY);
            let new_right = self.delete_node(right, succ_key, deferred_free)?;
            self.logged_write(subtree.word(N_RIGHT), new_right.offset())?;
        }
        self.rebalance(subtree)
    }

    // ------------------------------------------------------------------
    // Public index operations
    // ------------------------------------------------------------------

    /// Indexes an already-persistent log record under its transaction,
    /// linking it at the head of the transaction's record chain. The record's
    /// `prev` field is updated to the previous chain head.
    pub fn insert_record(&self, txid: u64, record_addr: PAddr) -> Result<()> {
        let _op = self.op_lock.lock();
        let mut node = self.find_node(txid);
        let mut deferred = Vec::new();
        if node.is_null() {
            node = self.pool.alloc(AAVLT_NODE_SIZE)?;
            self.init_node(node, txid);
            let new_root = self.insert_node(self.root(), node, txid)?;
            self.logged_write(self.root_cell, new_root.offset())?;
        }
        let old_head = self.field(node, N_CHAIN);
        // The record is not yet reachable through the tree, so its prev link
        // does not need undo logging; it only becomes meaningful once the
        // chain head below is (atomically) switched to it.
        self.pool.write_u64_nt(record_addr.word(7), old_head);
        self.logged_write(node.word(N_CHAIN), record_addr.offset())?;
        self.logged_write(node.word(N_COUNT), self.field(node, N_COUNT) + 1)?;
        self.finish_op(&deferred)?;
        deferred.clear();
        Ok(())
    }

    /// Removes a transaction from the index (its records are freed by the
    /// caller — the transaction manager owns record memory).
    pub fn remove_txn(&self, txid: u64) -> Result<()> {
        let _op = self.op_lock.lock();
        if self.find_node(txid).is_null() {
            return Ok(());
        }
        let mut deferred = Vec::new();
        let new_root = self.delete_node(self.root(), txid, &mut deferred)?;
        self.logged_write(self.root_cell, new_root.offset())?;
        self.finish_op(&deferred)?;
        Ok(())
    }

    /// Returns `true` if `txid` is indexed.
    pub fn contains(&self, txid: u64) -> bool {
        !self.find_node(txid).is_null()
    }

    /// Head of the record chain (the most recent record) of `txid`.
    pub fn chain_head(&self, txid: u64) -> Option<PAddr> {
        let node = self.find_node(txid);
        if node.is_null() {
            return None;
        }
        let head = self.field(node, N_CHAIN);
        if head == 0 {
            None
        } else {
            Some(PAddr::new(head))
        }
    }

    /// All records of `txid`, most recent first (the order rollback wants).
    pub fn records_of(&self, txid: u64) -> Result<Vec<(PAddr, LogRecord)>> {
        let mut out = Vec::new();
        let mut cur = self.chain_head(txid).unwrap_or(PAddr::NULL);
        while !cur.is_null() {
            let rec = LogRecord::read_from(&self.pool, cur)?;
            let prev = rec.prev;
            out.push((cur, rec));
            cur = prev;
        }
        Ok(out)
    }

    /// Number of records indexed under `txid`.
    pub fn record_count(&self, txid: u64) -> u64 {
        let node = self.find_node(txid);
        if node.is_null() {
            0
        } else {
            self.field(node, N_COUNT)
        }
    }

    /// All indexed transaction ids, in ascending order.
    pub fn txids(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.inorder(self.root(), &mut out);
        out
    }

    fn inorder(&self, node: PAddr, out: &mut Vec<u64>) {
        if node.is_null() {
            return;
        }
        self.inorder(PAddr::new(self.field(node, N_LEFT)), out);
        out.push(self.field(node, N_KEY));
        self.inorder(PAddr::new(self.field(node, N_RIGHT)), out);
    }

    /// Checks the AVL invariants (sortedness and balance); used by tests.
    pub fn check_invariants(&self) -> bool {
        fn walk(tree: &Aavlt, node: PAddr, lo: Option<u64>, hi: Option<u64>) -> Option<u64> {
            if node.is_null() {
                return Some(0);
            }
            let key = tree.field(node, N_KEY);
            if lo.map(|l| key <= l).unwrap_or(false) || hi.map(|h| key >= h).unwrap_or(false) {
                return None;
            }
            let lh = walk(tree, PAddr::new(tree.field(node, N_LEFT)), lo, Some(key))?;
            let rh = walk(tree, PAddr::new(tree.field(node, N_RIGHT)), Some(key), hi)?;
            if (lh as i64 - rh as i64).abs() > 1 {
                return None;
            }
            let h = 1 + lh.max(rh);
            if h != tree.field(node, N_HEIGHT) {
                return None;
            }
            Some(h)
        }
        walk(self, self.root(), None, None).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RECORD_SIZE;
    use rewind_nvm::PoolConfig;

    fn pool() -> Arc<NvmPool> {
        NvmPool::new(PoolConfig::small())
    }

    fn make_record(pool: &Arc<NvmPool>, lsn: u64, txid: u64) -> PAddr {
        let a = pool.alloc(RECORD_SIZE).unwrap();
        LogRecord::update(lsn, txid, PAddr::new(0x100), 0, lsn).write_to_nt(pool, a);
        a
    }

    #[test]
    fn insert_and_lookup_many_transactions() {
        let p = pool();
        let tree = Aavlt::create(Arc::clone(&p), &RewindConfig::batch()).unwrap();
        assert!(tree.is_empty());
        for txid in [50u64, 20, 80, 10, 30, 70, 90, 25, 35, 1, 2, 3, 4, 5] {
            let r = make_record(&p, txid * 10, txid);
            tree.insert_record(txid, r).unwrap();
        }
        assert!(tree.check_invariants());
        assert_eq!(tree.len(), 14);
        assert!(tree.contains(30));
        assert!(!tree.contains(31));
        let ids = tree.txids();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn record_chains_are_most_recent_first() {
        let p = pool();
        let tree = Aavlt::create(Arc::clone(&p), &RewindConfig::batch()).unwrap();
        for lsn in 1..=5 {
            let r = make_record(&p, lsn, 7);
            tree.insert_record(7, r).unwrap();
        }
        assert_eq!(tree.record_count(7), 5);
        let recs = tree.records_of(7).unwrap();
        let lsns: Vec<u64> = recs.iter().map(|(_, r)| r.lsn).collect();
        assert_eq!(lsns, vec![5, 4, 3, 2, 1]);
        assert!(tree.records_of(99).unwrap().is_empty());
    }

    #[test]
    fn remove_txn_deletes_and_rebalances() {
        let p = pool();
        let tree = Aavlt::create(Arc::clone(&p), &RewindConfig::batch()).unwrap();
        for txid in 1..=30u64 {
            let r = make_record(&p, txid, txid);
            tree.insert_record(txid, r).unwrap();
        }
        for txid in (1..=30u64).step_by(2) {
            tree.remove_txn(txid).unwrap();
        }
        assert!(tree.check_invariants());
        assert_eq!(tree.len(), 15);
        for txid in 1..=30u64 {
            assert_eq!(tree.contains(txid), txid % 2 == 0, "txid {txid}");
        }
        // Removing an absent transaction is a no-op.
        tree.remove_txn(999).unwrap();
        assert_eq!(tree.len(), 15);
    }

    #[test]
    fn tree_survives_power_cycle() {
        let p = pool();
        let cfg = RewindConfig::batch();
        let tree = Aavlt::create(Arc::clone(&p), &cfg).unwrap();
        for txid in 1..=10u64 {
            let r = make_record(&p, txid, txid);
            tree.insert_record(txid, r).unwrap();
        }
        let root = tree.durable_root();
        drop(tree);
        p.power_cycle();
        let tree = Aavlt::attach(Arc::clone(&p), &cfg, root).unwrap();
        assert!(tree.check_invariants());
        assert_eq!(tree.len(), 10);
        assert_eq!(tree.records_of(5).unwrap().len(), 1);
    }

    #[test]
    fn crash_mid_insert_rolls_back_to_consistent_tree() {
        // Sweep crash points through an insert that triggers rebalancing.
        for crash_at in 1..=60u64 {
            let p = pool();
            let cfg = RewindConfig::batch();
            let tree = Aavlt::create(Arc::clone(&p), &cfg).unwrap();
            for txid in [10u64, 20, 30, 40, 50] {
                let r = make_record(&p, txid, txid);
                tree.insert_record(txid, r).unwrap();
            }
            let root = tree.durable_root();
            let r = make_record(&p, 60, 60);
            p.crash_injector().arm_after(crash_at);
            let _ = tree.insert_record(60, r);
            drop(tree);
            p.power_cycle();
            let tree = Aavlt::attach(Arc::clone(&p), &cfg, root).unwrap();
            assert!(
                tree.check_invariants(),
                "crash at {crash_at} violated AVL invariants"
            );
            let n = tree.len();
            assert!(
                n == 5 || n == 6,
                "crash at {crash_at}: unexpected tree size {n}"
            );
            for txid in [10u64, 20, 30, 40, 50] {
                assert!(tree.contains(txid), "crash at {crash_at} lost txid {txid}");
            }
            // The tree must remain usable.
            let r = make_record(&p, 70, 70);
            tree.insert_record(70, r).unwrap();
            assert!(tree.contains(70));
        }
    }

    #[test]
    fn crash_mid_remove_rolls_back_to_consistent_tree() {
        for crash_at in 1..=60u64 {
            let p = pool();
            let cfg = RewindConfig::batch();
            let tree = Aavlt::create(Arc::clone(&p), &cfg).unwrap();
            for txid in 1..=10u64 {
                let r = make_record(&p, txid, txid);
                tree.insert_record(txid, r).unwrap();
            }
            let root = tree.durable_root();
            p.crash_injector().arm_after(crash_at);
            let _ = tree.remove_txn(5);
            drop(tree);
            p.power_cycle();
            let tree = Aavlt::attach(Arc::clone(&p), &cfg, root).unwrap();
            assert!(
                tree.check_invariants(),
                "crash at {crash_at} violated AVL invariants"
            );
            let n = tree.len();
            assert!(n == 9 || n == 10, "crash at {crash_at}: size {n}");
            for txid in (1..=10u64).filter(|t| *t != 5) {
                assert!(tree.contains(txid), "crash at {crash_at} lost txid {txid}");
            }
        }
    }

    #[test]
    fn recover_is_idempotent() {
        let p = pool();
        let cfg = RewindConfig::batch();
        let tree = Aavlt::create(Arc::clone(&p), &cfg).unwrap();
        let r = make_record(&p, 1, 1);
        tree.insert_record(1, r).unwrap();
        assert!(!tree.recover().unwrap(), "nothing pending");
        assert!(!tree.recover().unwrap());
        assert!(tree.contains(1));
    }
}
