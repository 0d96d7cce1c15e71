//! The central log buffer.
//!
//! The buffer is the classic single point of serialization in a
//! shared-everything engine: every transaction's log records must be appended
//! to one totally-ordered stream.  The paper assumes the Aether optimizations
//! that make this critical section *composable*; the reproduction exposes both
//! the unoptimized ("one critical section per record") and the consolidated
//! ("one critical section per batch") protocols so the benchmark harness can
//! show the difference.

use std::collections::VecDeque;
use std::sync::Arc;

use plp_instrument::{CsCategory, InstrumentedMutex, StatsRegistry};

use crate::record::{LogRecord, Lsn};

/// How log records reach the central buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertProtocol {
    /// Every record insert takes the buffer mutex (pre-Aether behaviour).
    Baseline,
    /// Records are staged per transaction and inserted as one batch at commit
    /// (Aether-style consolidation at transaction granularity).
    Consolidated,
}

struct BufferInner {
    /// Records appended but not yet flushed.  The group-commit flusher
    /// drains them and (when a log device is attached) writes them out.
    pending: VecDeque<LogRecord>,
    tail_lsn: Lsn,
    total_records: u64,
    total_bytes: u64,
}

/// The shared, totally-ordered log buffer.
pub struct LogBuffer {
    inner: InstrumentedMutex<BufferInner>,
}

impl LogBuffer {
    pub fn new(stats: Arc<StatsRegistry>) -> Self {
        Self::new_at(stats, Lsn::FIRST)
    }

    /// Start the LSN stream at `tail` (used when resuming over an existing
    /// on-disk log after recovery).
    pub fn new_at(stats: Arc<StatsRegistry>, tail: Lsn) -> Self {
        Self {
            inner: InstrumentedMutex::new(
                BufferInner {
                    pending: VecDeque::new(),
                    tail_lsn: tail,
                    total_records: 0,
                    total_bytes: 0,
                },
                CsCategory::LogMgr,
                stats,
            ),
        }
    }

    /// Append a single record (baseline protocol).  Returns its assigned LSN
    /// and the number of records now pending flush.
    pub fn append_one(&self, mut record: LogRecord) -> (Lsn, usize) {
        let (mut g, _waited) = self.inner.lock();
        record.lsn = g.tail_lsn;
        let lsn = record.lsn;
        g.tail_lsn = g.tail_lsn.advance(record.size_bytes());
        g.total_records += 1;
        g.total_bytes += record.size_bytes();
        g.pending.push_back(record);
        (lsn, g.pending.len())
    }

    /// Move a batch of records into the buffer in one critical section
    /// (consolidated protocol), leaving `records` empty with its capacity
    /// kept.  The records are moved, not cloned, so the critical section
    /// never copies a payload.  Returns the LSN of the *last* record in the
    /// batch and the number of records now pending flush.
    pub fn append_batch(&self, records: &mut Vec<LogRecord>) -> (Lsn, usize) {
        if records.is_empty() {
            return (Lsn::ZERO, 0);
        }
        let (mut g, _waited) = self.inner.lock();
        let mut last = Lsn::ZERO;
        for mut r in records.drain(..) {
            r.lsn = g.tail_lsn;
            last = r.lsn;
            g.tail_lsn = g.tail_lsn.advance(r.size_bytes());
            g.total_records += 1;
            g.total_bytes += r.size_bytes();
            g.pending.push_back(r);
        }
        (last, g.pending.len())
    }

    /// Drain everything pending (called by the group-commit flusher).
    /// Returns the LSN high-water mark after the drain and the drained
    /// records, in order, ready to be written to the log device.
    pub fn drain(&self) -> (Lsn, Vec<LogRecord>) {
        let mut g = self.inner.lock_uninstrumented();
        let records: Vec<LogRecord> = std::mem::take(&mut g.pending).into();
        (g.tail_lsn, records)
    }

    /// Current tail (next) LSN.
    pub fn tail_lsn(&self) -> Lsn {
        let g = self.inner.lock_uninstrumented();
        g.tail_lsn
    }

    /// Number of records ever appended.
    pub fn total_records(&self) -> u64 {
        let g = self.inner.lock_uninstrumented();
        g.total_records
    }

    /// Total log volume in bytes.
    pub fn total_bytes(&self) -> u64 {
        let g = self.inner.lock_uninstrumented();
        g.total_bytes
    }

    /// Number of records waiting to be flushed.
    pub fn pending_records(&self) -> usize {
        let g = self.inner.lock_uninstrumented();
        g.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecordKind;

    fn buffer() -> (Arc<StatsRegistry>, LogBuffer) {
        let stats = StatsRegistry::new_shared();
        let buf = LogBuffer::new(stats.clone());
        (stats, buf)
    }

    #[test]
    fn lsns_are_monotone_and_sized() {
        let (_s, b) = buffer();
        let (l1, _) = b.append_one(LogRecord::new(1, LogRecordKind::Insert, 5, 100));
        let (l2, _) = b.append_one(LogRecord::new(1, LogRecordKind::Insert, 5, 100));
        assert!(l2 > l1);
        assert_eq!(l2.0 - l1.0, 148);
        assert_eq!(b.total_records(), 2);
        assert_eq!(b.total_bytes(), 296);
    }

    #[test]
    fn batch_assigns_contiguous_lsns() {
        let (_s, b) = buffer();
        let mut batch = vec![
            LogRecord::new(2, LogRecordKind::Update, 1, 10),
            LogRecord::new(2, LogRecordKind::Update, 2, 10),
            LogRecord::new(2, LogRecordKind::Commit, 0, 0),
        ];
        let (last, pending) = b.append_batch(&mut batch);
        // The records moved into the buffer; the staging Vec is left empty.
        assert!(batch.is_empty());
        assert_eq!(pending, 3);
        assert_eq!(b.pending_records(), 3);
        let (_, drained) = b.drain();
        assert_eq!(last, drained[2].lsn);
        assert!(drained[0].lsn < drained[1].lsn && drained[1].lsn < drained[2].lsn);
        // Contiguous: each record starts where the previous one ended.
        assert_eq!(
            drained[1].lsn,
            drained[0].lsn.advance(drained[0].size_bytes())
        );
        assert_eq!(
            drained[2].lsn,
            drained[1].lsn.advance(drained[1].size_bytes())
        );
    }

    #[test]
    fn empty_batch_is_noop_cs_free() {
        let (s, b) = buffer();
        let before = s.snapshot().cs.entries(CsCategory::LogMgr);
        let (lsn, _) = b.append_batch(&mut Vec::new());
        assert_eq!(lsn, Lsn::ZERO);
        assert_eq!(s.snapshot().cs.entries(CsCategory::LogMgr), before);
    }

    #[test]
    fn drain_clears_pending_keeps_totals() {
        let (_s, b) = buffer();
        b.append_one(LogRecord::new(1, LogRecordKind::Insert, 1, 8));
        b.append_one(LogRecord::new(1, LogRecordKind::Commit, 0, 0));
        let (durable, drained) = b.drain();
        assert_eq!(drained.len(), 2);
        // Drained records carry their assigned LSNs, in order.
        assert!(drained[0].lsn < drained[1].lsn);
        assert_eq!(durable, b.tail_lsn());
        assert_eq!(b.pending_records(), 0);
        assert_eq!(b.total_records(), 2);
    }

    #[test]
    fn baseline_counts_one_cs_per_record_batch_counts_one() {
        let (s, b) = buffer();
        for _ in 0..10 {
            b.append_one(LogRecord::new(1, LogRecordKind::Update, 1, 8));
        }
        let after_singles = s.snapshot().cs.entries(CsCategory::LogMgr);
        assert_eq!(after_singles, 10);
        let mut batch: Vec<LogRecord> = (0..10)
            .map(|_| LogRecord::new(2, LogRecordKind::Update, 1, 8))
            .collect();
        b.append_batch(&mut batch);
        let after_batch = s.snapshot().cs.entries(CsCategory::LogMgr);
        assert_eq!(after_batch, 11);
    }
}
