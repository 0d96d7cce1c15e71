//! The log manager: per-transaction log handles, commit processing, the
//! group-commit flusher and (when a log directory is configured) the
//! file-backed durability pipeline.

use std::cell::Cell;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use plp_instrument::trace::now_nanos;
use plp_instrument::{CsCategory, StatsRegistry, TimeBreakdown, TimeBucket, TraceEvent};

use crate::buffer::{InsertProtocol, LogBuffer};
use crate::device::LogDevice;
use crate::record::{CheckpointData, LogRecord, LogRecordKind, Lsn};

/// What a commit waits for before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Commit returns as soon as the commit record is in the log buffer
    /// ("lazy" / asynchronous commit).  This is the default for contention
    /// experiments: the paper's evaluation is memory resident and focuses on
    /// critical-section behaviour, not commit latency.
    Lazy,
    /// Commit blocks until the flusher has drained past the commit record
    /// (and, when a log device is attached, written it to the OS).  No
    /// fsync wait — a crash of the whole machine may lose the tail.
    Synchronous,
    /// Commit blocks until the commit record has been written **and
    /// fsynced** to the file-backed log device.  Requires a log directory;
    /// this is the mode the crash-recovery guarantees are stated for.
    Strict,
}

/// Per-transaction logging state.
///
/// With the consolidated protocol, records accumulate here and hit the shared
/// buffer exactly once, at commit/abort time.
#[derive(Debug)]
pub struct TxnLogHandle {
    txn_id: u64,
    staged: Vec<LogRecord>,
    last_lsn: Lsn,
    records_logged: u64,
}

impl TxnLogHandle {
    fn new(txn_id: u64) -> Self {
        Self {
            txn_id,
            staged: Vec::new(),
            last_lsn: Lsn::ZERO,
            records_logged: 0,
        }
    }

    pub fn txn_id(&self) -> u64 {
        self.txn_id
    }

    pub fn last_lsn(&self) -> Lsn {
        self.last_lsn
    }

    pub fn records_logged(&self) -> u64 {
        self.records_logged
    }

    /// Stage a *synthetic* log record (declared payload length, no captured
    /// bytes) describing a change to `page`.  Kept for benchmarks and tests
    /// that only exercise log volume; real redo records go through
    /// [`Self::push_record`].
    pub fn log(&mut self, kind: LogRecordKind, page: u64, payload_len: u32) {
        self.staged
            .push(LogRecord::new(self.txn_id, kind, page, payload_len));
        self.records_logged += 1;
    }

    /// Stage a fully-formed redo record.  Its transaction id is forced to
    /// this handle's.
    pub fn push_record(&mut self, mut record: LogRecord) {
        record.txn_id = self.txn_id;
        self.staged.push(record);
        self.records_logged += 1;
    }
}

/// Records a device-less log keeps pending before the committing thread
/// drains them itself.  Without a device a drain only drops the records
/// (their LSNs and the append totals are already assigned), and `Lazy`
/// starts no flusher, so without this cap the buffer would keep every record
/// ever logged.
pub const SELF_DRAIN_RECORDS: usize = 4096;

thread_local! {
    /// Set on threads that must never block on the log (see
    /// [`forbid_durable_wait`]).
    static NEVER_WAITS: Cell<bool> = const { Cell::new(false) };
}

/// Declare that the calling thread must never block in
/// [`LogManager::wait_durable`]: partition workers hand their commits to
/// [`LogManager::release_when_durable`] instead, so a slow fsync never
/// stalls a partition.  Debug builds assert the promise.
pub fn forbid_durable_wait() {
    NEVER_WAITS.with(|c| c.set(true));
}

/// Outcome handed to a [`LogManager::release_when_durable`] callback: `Ok`
/// once the commit record is durable per the mode, `Err(reason)` when the
/// log device failed first.
pub type Durability = Result<(), String>;

/// A commit waiting for the flusher (see [`LogManager::release_when_durable`]).
struct PendingRelease {
    lsn: Lsn,
    since: Instant,
    release: Box<dyn FnOnce(Durability) + Send>,
}

#[derive(Default)]
struct DurableState {
    /// Highest LSN drained from the buffer (and written to the device when
    /// one is attached).
    written: Lsn,
    /// Highest LSN known fsynced to stable storage.
    synced: Lsn,
    /// Commits whose answer waits for `written`/`synced` to reach their LSN.
    pending: Vec<PendingRelease>,
    /// Set once a device write or fsync failed: no later release may run Ok.
    failed: Option<String>,
}

impl DurableState {
    fn reached(&self, mode: DurabilityMode, lsn: Lsn) -> bool {
        match mode {
            DurabilityMode::Lazy => true,
            DurabilityMode::Synchronous => self.written >= lsn,
            DurabilityMode::Strict => self.synced >= lsn,
        }
    }

    /// Remove and return the pending releases whose LSN is now durable.
    fn take_ready(&mut self, mode: DurabilityMode) -> Vec<PendingRelease> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let (ready, waiting) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| self.reached(mode, p.lsn));
        self.pending = waiting;
        ready
    }
}

struct FlusherState {
    durable: Mutex<DurableState>,
    flushed: Condvar,
    wakeup: Condvar,
    shutdown: AtomicBool,
}

/// The log manager.
pub struct LogManager {
    buffer: LogBuffer,
    protocol: InsertProtocol,
    durability: DurabilityMode,
    stats: Arc<StatsRegistry>,
    device: Option<LogDevice>,
    /// Serializes whole drain→write→fsync rounds: the background flusher,
    /// `flush_now` (checkpoints) and self-service commits may race, and two
    /// interleaved drains would reach the device out of LSN order.
    flush_lock: Mutex<()>,
    next_txn_first_lsn: AtomicU64,
    flusher: Arc<FlusherState>,
    flusher_thread: Mutex<Option<JoinHandle<()>>>,
}

impl LogManager {
    /// A memory-only log manager (no device; durability is simulated).
    /// [`DurabilityMode::Strict`] requires a device — use
    /// [`Self::with_directory`] for it.
    pub fn new(
        protocol: InsertProtocol,
        durability: DurabilityMode,
        stats: Arc<StatsRegistry>,
    ) -> Self {
        assert!(
            durability != DurabilityMode::Strict,
            "DurabilityMode::Strict requires a log directory (LogManager::with_directory)"
        );
        Self::build(protocol, durability, stats, None, Lsn::FIRST)
    }

    /// A log manager backed by a segmented file device in `dir`.  An
    /// existing directory is opened for appending (its torn tail, if any, is
    /// truncated); logging resumes after the last valid record.
    pub fn with_directory(
        protocol: InsertProtocol,
        durability: DurabilityMode,
        stats: Arc<StatsRegistry>,
        dir: impl AsRef<Path>,
        segment_bytes: u64,
    ) -> io::Result<Self> {
        let (device, tail) = LogDevice::open(dir.as_ref(), segment_bytes, stats.clone())?;
        Ok(Self::build(protocol, durability, stats, Some(device), tail))
    }

    fn build(
        protocol: InsertProtocol,
        durability: DurabilityMode,
        stats: Arc<StatsRegistry>,
        device: Option<LogDevice>,
        tail: Lsn,
    ) -> Self {
        Self {
            buffer: LogBuffer::new_at(stats.clone(), tail),
            protocol,
            durability,
            stats,
            device,
            flush_lock: Mutex::new(()),
            next_txn_first_lsn: AtomicU64::new(1),
            flusher: Arc::new(FlusherState {
                durable: Mutex::new(DurableState::default()),
                flushed: Condvar::new(),
                wakeup: Condvar::new(),
                shutdown: AtomicBool::new(false),
            }),
            flusher_thread: Mutex::new(None),
        }
    }

    pub fn protocol(&self) -> InsertProtocol {
        self.protocol
    }

    pub fn durability(&self) -> DurabilityMode {
        self.durability
    }

    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    /// The file-backed device, when one is attached.
    pub fn device(&self) -> Option<&LogDevice> {
        self.device.as_ref()
    }

    pub fn has_device(&self) -> bool {
        self.device.is_some()
    }

    /// Begin logging for a new transaction.
    pub fn begin(&self, txn_id: u64) -> TxnLogHandle {
        self.next_txn_first_lsn.fetch_add(1, Ordering::Relaxed);
        TxnLogHandle::new(txn_id)
    }

    /// Record a synthetic change (declared length only; see
    /// [`TxnLogHandle::log`]).  Under the baseline protocol the record goes
    /// straight to the shared buffer (one critical section); under the
    /// consolidated protocol it is staged in the handle.
    pub fn log(&self, handle: &mut TxnLogHandle, kind: LogRecordKind, page: u64, payload_len: u32) {
        self.log_record(
            handle,
            LogRecord::new(handle.txn_id, kind, page, payload_len),
        );
    }

    /// Record a fully-formed redo record (payload bytes captured at the
    /// storage layer).  Protocol-dependent like [`Self::log`].
    pub fn log_record(&self, handle: &mut TxnLogHandle, mut record: LogRecord) {
        record.txn_id = handle.txn_id;
        match self.protocol {
            InsertProtocol::Baseline => {
                let (lsn, pending) = self.buffer.append_one(record);
                handle.last_lsn = lsn;
                handle.records_logged += 1;
                self.drain_if_over_cap(pending);
            }
            InsertProtocol::Consolidated => handle.push_record(record),
        }
    }

    /// Append a system record (checkpoint/repartition metadata) outside any
    /// transaction.  Returns its LSN; durability follows the flusher like
    /// any other record.
    pub fn log_system(&self, record: LogRecord) -> Lsn {
        let (lsn, pending) = self.buffer.append_one(record);
        self.drain_if_over_cap(pending);
        lsn
    }

    /// Write a fuzzy checkpoint record and flush it (write + fsync when a
    /// device is attached).  Returns the checkpoint's LSN.
    pub fn write_checkpoint(&self, data: CheckpointData) -> Lsn {
        let lsn = self.log_system(data.into_record());
        self.flush_now();
        self.stats.wal().checkpoint();
        lsn
    }

    fn finish(&self, handle: &mut TxnLogHandle, kind: LogRecordKind) -> Lsn {
        let (lsn, pending) = match self.protocol {
            InsertProtocol::Baseline => {
                self.buffer
                    .append_one(LogRecord::new(handle.txn_id, kind, 0, 0))
            }
            InsertProtocol::Consolidated => {
                handle.log(kind, 0, 0);
                self.buffer.append_batch(&mut handle.staged)
            }
        };
        handle.last_lsn = lsn;
        self.drain_if_over_cap(pending);
        lsn
    }

    /// Bound the device-less buffer: once more than [`SELF_DRAIN_RECORDS`]
    /// are pending, the appending thread drains them itself.  `pending` comes
    /// out of the append's own critical section, so the common case costs no
    /// extra lock.  With a device the flusher owns every drain (a committing
    /// worker must never write or fsync).
    fn drain_if_over_cap(&self, pending: usize) {
        if pending > SELF_DRAIN_RECORDS && self.device.is_none() {
            self.flush_batch(false);
        }
    }

    /// Write the commit record (and wait per the durability mode).
    pub fn commit(&self, handle: &mut TxnLogHandle) -> Lsn {
        let lsn = self.insert_commit(handle);
        self.wait_durable(lsn, None);
        lsn
    }

    /// Insert the commit record and return its LSN without waiting for
    /// durability.  The caller either blocks in [`Self::wait_durable`] or
    /// hands the answer to [`Self::release_when_durable`].
    pub fn insert_commit(&self, handle: &mut TxnLogHandle) -> Lsn {
        self.finish(handle, LogRecordKind::Commit)
    }

    /// Write the abort record.  Aborts never wait for durability.
    pub fn abort(&self, handle: &mut TxnLogHandle) -> Lsn {
        self.finish(handle, LogRecordKind::Abort)
    }

    /// Run `release` once the record at `lsn` is durable per the mode,
    /// without blocking the caller: inline under `Lazy` (and when the
    /// flusher is already past `lsn`), otherwise on the flusher thread once
    /// `written` (`Synchronous`) or `synced` (`Strict`) reaches `lsn`.  If
    /// the log device fails first, `release` gets `Err(reason)` — a pending
    /// release never answers `Ok` after a failure.
    pub fn release_when_durable(
        &self,
        lsn: Lsn,
        release: impl FnOnce(Durability) + Send + 'static,
    ) {
        if self.durability == DurabilityMode::Lazy {
            return release(Ok(()));
        }
        // The commit-side half of the group-commit handshake, as in
        // `wait_durable`: one log-manager critical section per commit.
        self.stats.cs().enter(CsCategory::LogMgr, false);
        let mut durable = self.flusher.durable.lock();
        if let Some(reason) = &durable.failed {
            let reason = reason.clone();
            drop(durable);
            return release(Err(reason));
        }
        if durable.reached(self.durability, lsn) {
            drop(durable);
            return release(Ok(()));
        }
        durable.pending.push(PendingRelease {
            lsn,
            since: Instant::now(),
            release: Box::new(release),
        });
        self.flusher.wakeup.notify_one();
        drop(durable);
        // Self-service group commit, as in `wait_durable`.
        if self.flusher_thread.lock().is_none() {
            self.flush_batch(self.durability == DurabilityMode::Strict);
        }
    }

    /// Block until the record at `lsn` is durable per the mode, attributing
    /// the wait to `bd`'s log-wait bucket when given.
    pub fn wait_durable(&self, lsn: Lsn, bd: Option<&TimeBreakdown>) {
        if self.durability == DurabilityMode::Lazy {
            return;
        }
        debug_assert!(
            !NEVER_WAITS.with(Cell::get),
            "a thread that must not block on the log waited for durability"
        );
        let start = std::time::Instant::now();
        // Waking the flusher and waiting on the flushed condition is the
        // commit-side half of the group-commit handshake: one log-manager
        // critical section regardless of how many records the txn wrote.
        self.stats.cs().enter(CsCategory::LogMgr, false);
        // Self-service group commit: with no flusher thread running, the
        // committing thread flushes its own batch (single-shot experiments
        // and unit tests run this way).
        if self.flusher_thread.lock().is_none() {
            self.flush_batch(self.durability == DurabilityMode::Strict);
        }
        let mut durable = self.flusher.durable.lock();
        self.flusher.wakeup.notify_one();
        while !durable.reached(self.durability, lsn)
            && !self.flusher.shutdown.load(Ordering::Acquire)
        {
            self.flusher
                .flushed
                .wait_for(&mut durable, Duration::from_millis(5));
            self.flusher.wakeup.notify_one();
        }
        let waited = start.elapsed();
        if let Some(bd) = bd {
            bd.add(TimeBucket::LogWait, waited);
        }
        // The commit-time flush wait is also a round-trip *phase*: this is
        // the precise recording site for `phase_wal_flush` (the session-level
        // slow log measures the whole commit call instead).
        self.stats.latency().phase_wal_flush.record_duration(waited);
    }

    /// Drain the buffer once: write the batch to the device (when attached),
    /// fsync if the durability mode demands it, and advance the durable
    /// LSNs.  Shared by the flusher thread and [`Self::flush_now`];
    /// `force_sync` additionally fsyncs regardless of mode.
    fn flush_batch(&self, force_sync: bool) -> (Lsn, usize) {
        let _round = self.flush_lock.lock();
        // After a device failure the log has a hole where the failed batch
        // should be: nothing after it may reach the device.
        if self.flusher.durable.lock().failed.is_some() {
            return (Lsn::ZERO, 0);
        }
        let flush_start = Instant::now();
        let (tail, records) = self.buffer.drain();
        let flushed = records.len();
        match &self.device {
            Some(device) => {
                if let Err(e) = device.append_batch(&records) {
                    self.fail_flusher(&format!("log device write failed: {e}"));
                }
                let sync = force_sync || self.durability == DurabilityMode::Strict;
                let mut durable = self.flusher.durable.lock();
                if tail > durable.written {
                    durable.written = tail;
                }
                // Only hit the disk when something was written since the
                // last sync — a Strict flusher wakes every interval and
                // would otherwise issue thousands of no-op fsyncs per
                // second (and corrupt the fsync metric).
                if sync && durable.synced < durable.written {
                    if let Err(e) = device.sync() {
                        drop(durable);
                        self.fail_flusher(&format!("log device fsync failed: {e}"));
                    }
                    durable.synced = durable.written;
                }
                self.run_releases(durable.take_ready(self.durability), durable);
            }
            None => {
                if !records.is_empty() {
                    let bytes = records.iter().map(|r| r.size_bytes()).sum();
                    self.stats.wal().flushed(records.len() as u64, bytes);
                }
                let mut durable = self.flusher.durable.lock();
                if tail > durable.written {
                    durable.written = tail;
                }
                // Without a device there is nothing to fsync; "synced"
                // follows "written" so Strict-less callers of synced_lsn see
                // progress.
                if tail > durable.synced {
                    durable.synced = tail;
                }
                self.run_releases(durable.take_ready(self.durability), durable);
            }
        }
        self.flusher.flushed.notify_all();
        // Only batches that carried records land in the histogram: an idle
        // Strict flusher wakes every interval and would otherwise drown the
        // distribution in no-op drains.
        if flushed > 0 {
            self.stats
                .latency()
                .wal_flush
                .record_duration(flush_start.elapsed());
        }
        (tail, flushed)
    }

    /// Answer `ready` releases with `Ok` once the durable-state lock is
    /// released (a release may do arbitrary work, such as encoding and
    /// queueing a network response).  Each one's wait since registration is
    /// its `phase_wal_flush`, like a blocking commit's.
    fn run_releases(
        &self,
        ready: Vec<PendingRelease>,
        durable: parking_lot::MutexGuard<'_, DurableState>,
    ) {
        drop(durable);
        for p in ready {
            self.stats
                .latency()
                .phase_wal_flush
                .record_duration(p.since.elapsed());
            (p.release)(Ok(()));
        }
    }

    /// A log-device I/O failure is fatal for durability: mark the manager
    /// shut down, answer every pending release with the error (and make
    /// later ones fail at once), wake every commit waiting in
    /// [`Self::wait_durable`] (they would otherwise spin forever
    /// re-notifying a dead flusher), then panic with the device error.
    fn fail_flusher(&self, reason: &str) -> ! {
        self.flusher.shutdown.store(true, Ordering::Release);
        let pending = {
            let mut durable = self.flusher.durable.lock();
            durable.failed = Some(reason.to_string());
            std::mem::take(&mut durable.pending)
        };
        for p in pending {
            (p.release)(Err(reason.to_string()));
        }
        self.flusher.flushed.notify_all();
        self.flusher.wakeup.notify_all();
        panic!("{reason}");
    }

    /// Test hook: make the log device's next write fail (see
    /// [`LogDevice::inject_write_failure`]).  No-op without a device.
    #[doc(hidden)]
    pub fn inject_device_write_failure(&self) {
        if let Some(device) = &self.device {
            device.inject_write_failure();
        }
    }

    /// Start the background group-commit flusher.  Idempotent.
    pub fn start_flusher(self: &Arc<Self>, interval: Duration) {
        let mut slot = self.flusher_thread.lock();
        if slot.is_some() {
            return;
        }
        let mgr = self.clone();
        let state = self.flusher.clone();
        let handle = std::thread::Builder::new()
            .name("plp-log-flusher".into())
            .spawn(move || {
                plp_instrument::tag_thread_engine(&mgr.stats);
                // One chrome://tracing row for the group-commit flusher.
                let ring = mgr.stats.trace().register("wal-flusher");
                while !state.shutdown.load(Ordering::Acquire) {
                    {
                        // A release registered since the last drain is
                        // served at once: its wakeup may have fired while
                        // this thread was busy flushing.
                        let mut durable = state.durable.lock();
                        if durable.pending.is_empty() {
                            state.wakeup.wait_for(&mut durable, interval);
                        }
                    }
                    let t0 = now_nanos();
                    let (_, flushed) = mgr.flush_batch(false);
                    if flushed > 0 {
                        ring.event(
                            TraceEvent::LogFlush,
                            flushed as u64,
                            t0,
                            now_nanos().saturating_sub(t0),
                        );
                    }
                }
                // Final drain so a graceful shutdown leaves nothing behind.
                mgr.flush_batch(true);
            })
            .expect("spawn log flusher");
        *slot = Some(handle);
    }

    /// Stop the flusher thread (joins it; performs a final flush+fsync).
    pub fn stop_flusher(&self) {
        self.flusher.shutdown.store(true, Ordering::Release);
        self.flusher.wakeup.notify_all();
        self.flusher.flushed.notify_all();
        if let Some(h) = self.flusher_thread.lock().take() {
            join_unless_self(h);
        }
        // A release registered while the flusher was making its final drain
        // would otherwise wait for a flusher that no longer runs.
        let leftovers = {
            let durable = self.flusher.durable.lock();
            durable.failed.is_none() && !durable.pending.is_empty()
        };
        if leftovers {
            self.flush_batch(true);
        }
        // Allow restart after a stop (used by tests).
        self.flusher.shutdown.store(false, Ordering::Release);
    }

    /// Highest LSN known written out (drained from the buffer).
    pub fn durable_lsn(&self) -> Lsn {
        self.flusher.durable.lock().written
    }

    /// Highest LSN known fsynced to stable storage.
    pub fn synced_lsn(&self) -> Lsn {
        self.flusher.durable.lock().synced
    }

    /// Total records ever appended to the shared buffer.
    pub fn record_count(&self) -> u64 {
        self.buffer.total_records()
    }

    /// Total log bytes ever appended.
    pub fn byte_count(&self) -> u64 {
        self.buffer.total_bytes()
    }

    /// Records pending flush (test/diagnostic helper).
    pub fn pending_records(&self) -> usize {
        self.buffer.pending_records()
    }

    /// Manually flush (and fsync) everything pending — used when running
    /// without a flusher thread and by checkpoints.
    pub fn flush_now(&self) -> Lsn {
        self.flush_batch(true);
        self.flusher.durable.lock().written
    }
}

impl Drop for LogManager {
    fn drop(&mut self) {
        self.flusher.shutdown.store(true, Ordering::Release);
        self.flusher.wakeup.notify_all();
        if let Some(h) = self.flusher_thread.get_mut().take() {
            join_unless_self(h);
        }
    }
}

/// Join `handle` unless it is the calling thread's own handle — the flusher
/// holds an `Arc<LogManager>`, so the last reference can unwind *on* the
/// flusher thread, and `pthread_join` of self aborts the process (EDEADLK).
fn join_unless_self(handle: JoinHandle<()>) {
    if handle.thread().id() != std::thread::current().id() {
        let _ = handle.join();
    }
}

impl std::fmt::Debug for LogManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogManager")
            .field("protocol", &self.protocol)
            .field("durability", &self.durability)
            .field("device", &self.device.is_some())
            .field("records", &self.record_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(protocol: InsertProtocol, durability: DurabilityMode) -> Arc<LogManager> {
        Arc::new(LogManager::new(
            protocol,
            durability,
            StatsRegistry::new_shared(),
        ))
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "plp-wal-manager-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn consolidated_stages_until_commit() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        let mut h = m.begin(7);
        m.log(&mut h, LogRecordKind::Insert, 3, 100);
        m.log(&mut h, LogRecordKind::Update, 4, 50);
        assert_eq!(m.record_count(), 0);
        let lsn = m.commit(&mut h);
        assert!(lsn > Lsn::ZERO);
        assert_eq!(m.record_count(), 3);
        // Exactly one log-manager critical section for the whole transaction.
        assert_eq!(m.stats().snapshot().cs.entries(CsCategory::LogMgr), 1);
    }

    #[test]
    fn baseline_hits_buffer_per_record() {
        let m = mgr(InsertProtocol::Baseline, DurabilityMode::Lazy);
        let mut h = m.begin(7);
        m.log(&mut h, LogRecordKind::Insert, 3, 100);
        m.log(&mut h, LogRecordKind::Update, 4, 50);
        m.commit(&mut h);
        assert_eq!(m.record_count(), 3);
        assert_eq!(m.stats().snapshot().cs.entries(CsCategory::LogMgr), 3);
    }

    #[test]
    fn abort_writes_abort_record() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        let mut h = m.begin(9);
        m.log(&mut h, LogRecordKind::Insert, 1, 10);
        let lsn = m.abort(&mut h);
        assert!(lsn > Lsn::ZERO);
        assert_eq!(m.record_count(), 2);
    }

    #[test]
    fn synchronous_commit_waits_for_flusher() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Synchronous);
        m.start_flusher(Duration::from_micros(200));
        let mut h = m.begin(1);
        m.log(&mut h, LogRecordKind::Update, 2, 16);
        let lsn = m.commit(&mut h);
        assert!(m.durable_lsn() >= lsn);
        m.stop_flusher();
    }

    #[test]
    #[should_panic(expected = "requires a log directory")]
    fn strict_without_device_panics() {
        let _ = LogManager::new(
            InsertProtocol::Consolidated,
            DurabilityMode::Strict,
            StatsRegistry::new_shared(),
        );
    }

    #[test]
    fn strict_commit_is_fsynced_before_return() {
        let dir = temp_dir("strict");
        let stats = StatsRegistry::new_shared();
        let m = Arc::new(
            LogManager::with_directory(
                InsertProtocol::Consolidated,
                DurabilityMode::Strict,
                stats.clone(),
                &dir,
                1 << 20,
            )
            .unwrap(),
        );
        m.start_flusher(Duration::from_micros(200));
        let mut h = m.begin(1);
        m.log_record(
            &mut h,
            LogRecord::with_payload(1, LogRecordKind::Insert, 0, 5, None, vec![1, 2, 3]),
        );
        let lsn = m.commit(&mut h);
        assert!(m.synced_lsn() >= lsn, "strict commit returned before fsync");
        assert!(stats.snapshot().wal.fsyncs >= 1);
        assert!(stats.snapshot().wal.flushed_records >= 2);
        m.stop_flusher();
        drop(m);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_now_advances_durable_lsn() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        let mut h = m.begin(1);
        m.log(&mut h, LogRecordKind::Update, 2, 16);
        let lsn = m.commit(&mut h);
        assert_eq!(m.durable_lsn(), Lsn::ZERO);
        let durable = m.flush_now();
        assert!(durable >= lsn);
        assert_eq!(m.pending_records(), 0);
    }

    #[test]
    fn checkpoint_record_is_durable_immediately() {
        let dir = temp_dir("ckpt");
        let stats = StatsRegistry::new_shared();
        let m = LogManager::with_directory(
            InsertProtocol::Consolidated,
            DurabilityMode::Lazy,
            stats.clone(),
            &dir,
            1 << 20,
        )
        .unwrap();
        let lsn = m.write_checkpoint(CheckpointData {
            next_txn_id: 9,
            partitions: 2,
            ..Default::default()
        });
        assert!(m.synced_lsn() >= lsn);
        assert_eq!(stats.snapshot().wal.checkpoints, 1);
        drop(m);
        let scan = crate::recovery::scan_log(&dir).unwrap();
        let (ckpt_lsn, data) = scan.checkpoint.unwrap();
        assert_eq!(ckpt_lsn, lsn);
        assert_eq!(data.next_txn_id, 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn many_transactions_get_increasing_lsns() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        let mut last = Lsn::ZERO;
        for t in 0..100 {
            let mut h = m.begin(t);
            m.log(&mut h, LogRecordKind::Update, t, 24);
            let lsn = m.commit(&mut h);
            assert!(lsn > last);
            last = lsn;
        }
        assert_eq!(m.record_count(), 200);
    }

    #[test]
    fn concurrent_commits_are_ordered() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let mut h = m.begin(t * 1000 + i);
                    m.log(&mut h, LogRecordKind::Update, i, 32);
                    m.commit(&mut h);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.record_count(), 8 * 100 * 2);
    }

    #[test]
    fn strict_concurrent_commits_all_recover() {
        let dir = temp_dir("strict-conc");
        let stats = StatsRegistry::new_shared();
        let m = Arc::new(
            LogManager::with_directory(
                InsertProtocol::Consolidated,
                DurabilityMode::Strict,
                stats,
                &dir,
                2048,
            )
            .unwrap(),
        );
        m.start_flusher(Duration::from_micros(100));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    let txn = t * 1000 + i + 1;
                    let mut h = m.begin(txn);
                    m.log_record(
                        &mut h,
                        LogRecord::with_payload(
                            txn,
                            LogRecordKind::Insert,
                            0,
                            txn,
                            None,
                            vec![t as u8; 16],
                        ),
                    );
                    m.commit(&mut h);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        m.stop_flusher();
        drop(m);
        let scan = crate::recovery::scan_log(&dir).unwrap();
        assert_eq!(scan.committed.len(), 100);
        assert_eq!(scan.redo_records().count(), 100);
        assert!(scan.losers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lazy_device_less_buffer_stays_bounded() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        let stride = LogRecord::new(0, LogRecordKind::Update, 0, 24).size_bytes()
            + LogRecord::new(0, LogRecordKind::Commit, 0, 0).size_bytes();
        let mut last = Lsn::ZERO;
        for t in 0..100_000u64 {
            let mut h = m.begin(t);
            m.log(&mut h, LogRecordKind::Update, t, 24);
            let lsn = m.commit(&mut h);
            // Self-draining never perturbs LSN assignment: every commit
            // record sits exactly one transaction's volume after the last.
            if t > 0 {
                assert_eq!(lsn, last.advance(stride), "txn {t}");
            }
            last = lsn;
            assert!(m.pending_records() <= SELF_DRAIN_RECORDS);
        }
        assert_eq!(m.record_count(), 200_000);
        assert_eq!(m.byte_count(), 100_000 * stride);
        assert!(m.pending_records() <= SELF_DRAIN_RECORDS);
    }

    /// Register a release for one committed transaction; the release
    /// reports what it saw when it ran.
    fn commit_and_release(
        m: &Arc<LogManager>,
        txn: u64,
    ) -> (Lsn, std::sync::mpsc::Receiver<(Durability, Lsn, Lsn)>) {
        let mut h = m.begin(txn);
        m.log_record(
            &mut h,
            LogRecord::with_payload(txn, LogRecordKind::Insert, 0, txn, None, vec![7; 16]),
        );
        let lsn = m.insert_commit(&mut h);
        let (tx, rx) = std::sync::mpsc::channel();
        let seen = Arc::clone(m);
        m.release_when_durable(lsn, move |r| {
            let _ = tx.send((r, seen.durable_lsn(), seen.synced_lsn()));
        });
        (lsn, rx)
    }

    #[test]
    fn release_runs_inline_under_lazy() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Lazy);
        let (_, rx) = commit_and_release(&m, 1);
        // Already answered when `release_when_durable` returned.
        let (r, _, _) = rx.try_recv().expect("lazy release runs inline");
        assert_eq!(r, Ok(()));
    }

    #[test]
    fn release_waits_for_written_under_synchronous() {
        let m = mgr(InsertProtocol::Consolidated, DurabilityMode::Synchronous);
        m.start_flusher(Duration::from_millis(2));
        for txn in 1..=50 {
            let (lsn, rx) = commit_and_release(&m, txn);
            let (r, written, _) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(r, Ok(()));
            assert!(written >= lsn, "released at written {written} < {lsn}");
        }
        m.stop_flusher();
    }

    #[test]
    fn release_waits_for_synced_under_strict() {
        let dir = temp_dir("release-strict");
        let stats = StatsRegistry::new_shared();
        let m = Arc::new(
            LogManager::with_directory(
                InsertProtocol::Consolidated,
                DurabilityMode::Strict,
                stats.clone(),
                &dir,
                1 << 20,
            )
            .unwrap(),
        );
        m.start_flusher(Duration::from_millis(2));
        let pending: Vec<_> = (1..=50).map(|txn| commit_and_release(&m, txn)).collect();
        for (lsn, rx) in pending {
            let (r, _, synced) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(r, Ok(()));
            assert!(synced >= lsn, "released at synced {synced} < {lsn}");
        }
        assert_eq!(stats.latency().phase_wal_flush.snapshot().count, 50);
        m.stop_flusher();
        drop(m);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn device_failure_never_releases_ok() {
        let dir = temp_dir("release-fail");
        let m = Arc::new(
            LogManager::with_directory(
                InsertProtocol::Consolidated,
                DurabilityMode::Strict,
                StatsRegistry::new_shared(),
                &dir,
                1 << 20,
            )
            .unwrap(),
        );
        // A long interval: the flusher only runs when a release wakes it.
        m.start_flusher(Duration::from_secs(3600));
        m.inject_device_write_failure();
        let first: Vec<_> = (1..=4).map(|txn| commit_and_release(&m, txn)).collect();
        for (_, rx) in first {
            let (r, _, _) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(r.unwrap_err().contains("injected"), "pending release");
        }
        // The flusher is dead; later releases fail at once.
        let (_, rx) = commit_and_release(&m, 5);
        let (r, _, _) = rx.try_recv().expect("answered inline after failure");
        assert!(r.is_err());
        drop(m);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
