//! The transaction manager.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use plp_instrument::{CsCategory, StatsRegistry, TimeBreakdown};
use plp_lock::LockManager;
use plp_wal::LogManager;

use crate::xct::{Transaction, TxnState};

/// Allocates transaction ids, tracks begin/commit/abort transitions and drives
/// the commit protocol (commit log record, lock release).
pub struct TxnManager {
    next_id: AtomicU64,
    log: Arc<LogManager>,
    stats: Arc<StatsRegistry>,
    /// Transactions begun but not yet committed/aborted — the active-txn
    /// table a fuzzy checkpoint captures.  (A `Transaction` dropped without
    /// commit/abort stays listed; the engine API always finishes
    /// transactions.)
    active: Mutex<BTreeSet<u64>>,
}

impl TxnManager {
    pub fn new(log: Arc<LogManager>, stats: Arc<StatsRegistry>) -> Self {
        // Id 0 is reserved; very high ids are reserved for SLI agents.
        Self::new_at(log, stats, 1)
    }

    /// A transaction manager whose first transaction id is `first_id` — used
    /// after recovery so new transactions never reuse a logged id.
    pub fn new_at(log: Arc<LogManager>, stats: Arc<StatsRegistry>, first_id: u64) -> Self {
        Self {
            next_id: AtomicU64::new(first_id.max(1)),
            log,
            stats,
            active: Mutex::new(BTreeSet::new()),
        }
    }

    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    pub fn log_manager(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// Begin a new transaction.  The state transition on the transaction
    /// object is a fixed-contention critical section (Figure 1, "Xct mgr").
    pub fn begin(&self) -> Transaction {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.stats.cs().enter(CsCategory::XctMgr, false);
        self.active.lock().insert(id);
        Transaction::new(id, self.log.begin(id))
    }

    /// The transactions currently active (begun, not yet finished) — what a
    /// fuzzy checkpoint records.
    pub fn active_txns(&self) -> Vec<u64> {
        self.active.lock().iter().copied().collect()
    }

    /// The next transaction id that would be handed out.
    pub fn next_txn_id(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Commit: write the commit record (flushing per the log manager's
    /// durability mode), release central locks, flip the state.
    ///
    /// `locks` is the central lock manager to release against; partitioned
    /// designs pass `None` because their workers used thread-local tables.
    pub fn commit_with(
        &self,
        txn: &mut Transaction,
        locks: Option<&LockManager>,
        breakdown: Option<&TimeBreakdown>,
    ) {
        let lsn = self.insert_commit(txn);
        self.log.wait_durable(lsn, breakdown);
        self.finish_commit(txn, locks);
    }

    /// Commit without waiting for durability: write the commit record, flip
    /// the state and return the commit LSN.  The caller must not acknowledge
    /// the commit until [`LogManager::release_when_durable`] releases that
    /// LSN.  For partitioned designs only (no central locks to release).
    pub fn commit_deferred(&self, txn: &mut Transaction) -> plp_wal::Lsn {
        let lsn = self.insert_commit(txn);
        self.finish_commit(txn, None);
        lsn
    }

    fn insert_commit(&self, txn: &mut Transaction) -> plp_wal::Lsn {
        assert!(txn.is_active(), "commit of a finished transaction");
        // One critical section per attached action to serialise the state
        // transition against action-completion notifications (fixed
        // contention: only the transaction's own actions participate).
        self.stats
            .cs()
            .enter_n(CsCategory::XctMgr, txn.action_count() as u64, false);
        self.log.insert_commit(txn.log_handle_mut())
    }

    fn finish_commit(&self, txn: &mut Transaction, locks: Option<&LockManager>) {
        let held = txn.take_locks();
        if let Some(lm) = locks {
            if !held.is_empty() {
                lm.release_all(txn.id(), &held);
            }
        }
        txn.set_state(TxnState::Committed);
        self.active.lock().remove(&txn.id());
        self.stats.txn_committed();
    }

    /// Convenience wrapper for `commit_with(txn, None, None)`.
    pub fn commit(&self, txn: &mut Transaction) {
        self.commit_with(txn, None, None);
    }

    /// Abort: write the abort record, release locks, flip the state.  (The
    /// reproduction does not implement undo — no experiment in the paper
    /// exercises rollback of applied changes; aborts happen only on lock
    /// timeouts before any physical change was applied.)
    pub fn abort_with(&self, txn: &mut Transaction, locks: Option<&LockManager>) {
        assert!(txn.is_active(), "abort of a finished transaction");
        self.stats.cs().enter(CsCategory::XctMgr, false);
        self.log.abort(txn.log_handle_mut());
        let held = txn.take_locks();
        if let Some(lm) = locks {
            if !held.is_empty() {
                lm.release_all(txn.id(), &held);
            }
        }
        txn.set_state(TxnState::Aborted);
        self.active.lock().remove(&txn.id());
        self.stats.txn_aborted();
    }

    pub fn abort(&self, txn: &mut Transaction) {
        self.abort_with(txn, None);
    }
}

impl std::fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnManager")
            .field("next_id", &self.next_id.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plp_lock::{LockId, LockMode};
    use plp_wal::{DurabilityMode, InsertProtocol};

    fn setup() -> (Arc<StatsRegistry>, Arc<LockManager>, TxnManager) {
        let stats = StatsRegistry::new_shared();
        let log = Arc::new(LogManager::new(
            InsertProtocol::Consolidated,
            DurabilityMode::Lazy,
            stats.clone(),
        ));
        let locks = Arc::new(LockManager::new(stats.clone()));
        (stats.clone(), locks, TxnManager::new(log, stats))
    }

    #[test]
    fn ids_are_unique_and_increasing() {
        let (_s, _l, mgr) = setup();
        let a = mgr.begin();
        let b = mgr.begin();
        assert!(b.id() > a.id());
    }

    #[test]
    fn commit_releases_central_locks() {
        let (stats, locks, mgr) = setup();
        let mut txn = mgr.begin();
        let acquired = locks
            .acquire_hierarchical(txn.id(), LockId::Key(1, 9), LockMode::X, None)
            .unwrap();
        txn.record_locks(acquired.into_iter().map(|(id, _)| id));
        assert_eq!(locks.live_heads(), 3);
        txn.log_update(1, 5, b"old-value", b"new-value");
        mgr.commit_with(&mut txn, Some(&locks), None);
        assert_eq!(locks.live_heads(), 0);
        assert_eq!(txn.state(), TxnState::Committed);
        assert_eq!(stats.committed(), 1);
        assert_eq!(stats.aborted(), 0);
    }

    #[test]
    fn abort_releases_locks_and_counts() {
        let (stats, locks, mgr) = setup();
        let mut txn = mgr.begin();
        let acquired = locks
            .acquire_hierarchical(txn.id(), LockId::Key(1, 9), LockMode::S, None)
            .unwrap();
        txn.record_locks(acquired.into_iter().map(|(id, _)| id));
        mgr.abort_with(&mut txn, Some(&locks));
        assert_eq!(locks.live_heads(), 0);
        assert_eq!(txn.state(), TxnState::Aborted);
        assert_eq!(stats.aborted(), 1);
    }

    #[test]
    #[should_panic(expected = "finished transaction")]
    fn double_commit_panics() {
        let (_s, _l, mgr) = setup();
        let mut txn = mgr.begin();
        mgr.commit(&mut txn);
        mgr.commit(&mut txn);
    }

    #[test]
    fn xct_manager_cs_scale_with_action_count() {
        let (stats, _l, mgr) = setup();
        let mut txn = mgr.begin();
        txn.set_action_count(4);
        mgr.commit(&mut txn);
        // 1 (begin) + 4 (commit, one per action rendezvous).
        assert_eq!(stats.snapshot().cs.entries(CsCategory::XctMgr), 5);
    }
}
