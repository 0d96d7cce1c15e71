//! Partition worker threads.
//!
//! Each logical partition is served by exactly one worker thread.  The
//! coordinator (the client thread running [`crate::engine::Session::execute`])
//! sends it [`WorkerRequest::Action`] messages; the worker executes the action
//! closure against its thread-local [`PartitionCtx`] and replies with the
//! output plus the action's accumulated log records.  This message exchange is
//! the *fixed-contention* communication that replaces centralized locking in
//! the partitioned designs (Figure 1's "Message passing" component).
//!
//! The exchange is engineered as the hot path it is: the request queue is the
//! channel shim's lock-free MPMC queue, and the reply leg is a pooled
//! [`ReplySlot`] rendezvous (no per-action channel allocation — see
//! [`crate::reply`]).
//!
//! # Batch framing
//!
//! A multi-action stage pays one message per *worker*, not per action: the
//! coordinator groups a stage's actions by routed worker and sends a single
//! [`WorkerRequest::Batch`] carrying the action closures in dispatch order
//! plus one [`BatchReplyPromise`].  The worker executes the batch strictly
//! in order (so a batch behaves exactly like the equivalent sequence of
//! `Action` messages from the same sender), pushing one [`ActionReply`] per
//! action — per-action results, log records and abort outcomes survive
//! batching — and wakes the coordinator once with `finish`.
//!
//! # Fast lanes and control ordering
//!
//! Sessions send actions/batches through a dedicated single-producer lane
//! per worker ([`WorkerHandle::fast_lane`], backed by the channel shim's
//! SPSC ring) and fall back to the MPMC queue when the lane is full.
//! Control messages (clean, quiesce, shutdown) always ride the MPMC queue.
//! The FIFO-per-sender guarantee that repartitioning relies on — every
//! action enqueued under the old boundaries drains before the worker parks
//! at the quiesce message — is preserved by a drain handshake: on receiving
//! a control message from the main queue, the worker first drains every
//! lane.  An action pushed onto a lane *before* the control message was
//! enqueued is guaranteed visible to that drain (the lane publication
//! happens-before the main-queue pop; pinned by the shim's
//! `model_lane_vs_control_ordering`), and actions enqueued *after* are kept
//! out by the dispatch gate for the window repartitioning cares about.
//!
//! # Worker-owned transactions
//!
//! A [`WorkerRequest::Owned`] carries a whole single-op transaction (the
//! shape of every wire request): the worker runs `TxnManager::begin`, the
//! op, the log merge and the commit or abort itself and answers through a
//! [`Completion`] — no coordinator waits on a reply.  It never waits for the
//! log flush: the commit's answer is handed to
//! [`plp_wal::LogManager::release_when_durable`].  Owned requests ride the
//! MPMC queue (their sender, a connection reader, holds no lane).
//!
//! Workers also handle system requests: page-cleaning batches for pages they
//! own (Appendix A.4) and quiesce/resume handshakes used by repartitioning.
//! When the engine was built with [`crate::catalog::EngineConfig::with_pinning`],
//! each worker pins itself to the CPU chosen by the topology-aware placement
//! (best-effort — see [`crate::topology`]).

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded, LaneSender, Receiver, Sender, TryRecvError};
use parking_lot::Mutex;
use plp_instrument::trace::now_nanos;
use plp_instrument::{obs_enabled, CsCategory, PhaseBreakdown, TraceEvent, TraceRing};
use plp_lock::LocalLockTable;
use plp_storage::{OwnerToken, PageCleaner, PageId};
use plp_wal::LogRecord;

use crate::action::{ActionFn, ActionOutput, DataContext};
use crate::catalog::Design;
use crate::ctx::PartitionCtx;
use crate::database::Database;
use crate::engine::{account_txn, TxnEnd};
use crate::error::EngineError;
use crate::reply::{BatchReplyPromise, BatchReplySlot, ReplyPromise, ReplySlot};
use crate::request::{ErrorCode, Op, Response};

/// Slots in each session's per-worker SPSC fast lane.  Deep enough that a
/// pipelined session never overflows it in practice; overflow just means the
/// message takes the MPMC fallback path (counted as a lane miss).
pub(crate) const LANE_CAP: usize = 64;

/// Reply sent back to the coordinator when an action finishes.
pub struct ActionReply {
    pub result: Result<ActionOutput, EngineError>,
    /// Physiological redo records the action produced; the coordinator
    /// merges them into the transaction so the commit record covers them.
    pub log: Vec<LogRecord>,
    /// Worker-side phase attribution: queue wait (first reply of a batch
    /// only) and execution time.  The coordinator derives the reply-wait
    /// remainder and feeds the `phase_*` histograms; all zeros in `obs-stub`
    /// builds.
    pub phases: PhaseBreakdown,
}

/// How a worker-owned transaction answers its requester (see
/// [`WorkerRequest::Owned`]).  Called exactly once, on the worker — or on
/// the log flusher when the answer waits for durability.
pub type Completion = Box<dyn FnOnce(Response) + Send>;

/// Requests a worker can serve.
pub enum WorkerRequest {
    /// Execute a transaction action on behalf of `txn_id`.
    Action {
        txn_id: u64,
        run: ActionFn,
        reply: ReplyPromise<ActionReply>,
        /// Coordinator's [`now_nanos`] read just before the enqueue; the
        /// worker subtracts it from its dequeue timestamp to attribute
        /// queue-wait time.
        enqueued_at: u64,
    },
    /// Execute a stage's actions for `txn_id` strictly in order, replying
    /// once for the whole batch (see the module's "Batch framing" section).
    Batch {
        txn_id: u64,
        actions: Vec<ActionFn>,
        reply: BatchReplyPromise<ActionReply>,
        enqueued_at: u64,
    },
    /// Run a whole single-op transaction on this worker — begin, the op,
    /// commit or abort — and answer through `done`, with no coordinator in
    /// between (the single-hop path, [`crate::PartitionManager::submit`]).
    Owned {
        op: Op,
        done: Completion,
        /// Requester's [`now_nanos`] read just before the enqueue: the
        /// origin of the transaction's round trip and queue wait.
        enqueued_at: u64,
    },
    /// Clean the given (owned) pages — the PLP page-cleaning path.
    Clean { pages: Vec<PageId> },
    /// Quiesce: acknowledge and then block until the resume channel fires.
    Quiesce {
        ack: Sender<()>,
        resume: Receiver<()>,
    },
    /// Terminate the worker thread.
    Shutdown,
}

/// Handle to one running partition worker.
pub struct WorkerHandle {
    pub index: usize,
    pub token: OwnerToken,
    sender: Sender<WorkerRequest>,
    /// Behind a mutex so shutdown works through a shared reference (the
    /// partition manager is shared with the DLB controller thread).
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl WorkerHandle {
    /// Spawn a worker serving partition `index`.  `pin_cpu` is a best-effort
    /// CPU affinity request from the topology-aware placement; failure to
    /// pin (container without affinity support, CPU gone offline) leaves the
    /// worker unpinned and is otherwise harmless.
    pub fn spawn(index: usize, db: Arc<Database>, design: Design, pin_cpu: Option<usize>) -> Self {
        let token = OwnerToken(index as u64 + 1);
        let (tx, rx) = unbounded::<WorkerRequest>();
        let thread = std::thread::Builder::new()
            .name(format!("plp-worker-{index}"))
            .spawn(move || {
                if let Some(cpu) = pin_cpu {
                    let _ = crate::topology::pin_current_thread(cpu);
                }
                worker_loop(db, design, token, rx)
            })
            .expect("spawn partition worker");
        Self {
            index,
            token,
            sender: tx,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Create a dedicated single-producer fast lane to this worker.  One per
    /// long-lived sender (the engine keeps one per session per worker):
    /// lane storage lives as long as the worker's channel.
    pub fn fast_lane(&self) -> LaneSender<WorkerRequest> {
        self.sender.fast_lane(LANE_CAP)
    }

    /// Send an action to this worker, preferring `lane` when given (falling
    /// back to the MPMC queue when the ring is full).  The reply arrives
    /// through `slot` (opened for one round here); the coordinator waits on
    /// the slot at the stage's rendezvous point and can then reuse it — the
    /// steady state allocates nothing.  Returns whether the message took the
    /// fast lane.
    pub fn send_action(
        &self,
        txn_id: u64,
        run: ActionFn,
        slot: &mut ReplySlot<ActionReply>,
        lane: Option<&LaneSender<WorkerRequest>>,
        stats: &plp_instrument::StatsRegistry,
        enqueued_at: u64,
    ) -> bool {
        let reply = slot.promise();
        // The enqueue is the coordinator's half of the message-passing
        // critical section pair.
        stats.cs().enter(CsCategory::MessagePassing, false);
        self.dispatch(
            WorkerRequest::Action {
                txn_id,
                run,
                reply,
                enqueued_at,
            },
            lane,
        )
    }

    /// Send a whole stage's worth of actions for this worker as one message
    /// (see the module's "Batch framing" section).  Returns whether the
    /// batch took the fast lane.
    pub fn send_batch(
        &self,
        txn_id: u64,
        actions: Vec<ActionFn>,
        slot: &mut BatchReplySlot<ActionReply>,
        lane: Option<&LaneSender<WorkerRequest>>,
        stats: &plp_instrument::StatsRegistry,
        enqueued_at: u64,
    ) -> bool {
        debug_assert!(!actions.is_empty(), "empty batch");
        let reply = slot.promise(actions.len());
        stats.cs().enter(CsCategory::MessagePassing, false);
        self.dispatch(
            WorkerRequest::Batch {
                txn_id,
                actions,
                reply,
                enqueued_at,
            },
            lane,
        )
    }

    /// Hand a whole single-op transaction to this worker over the MPMC
    /// queue (see [`WorkerRequest::Owned`]).  The caller holds the dispatch
    /// guard and has routed `op` here.
    pub fn send_owned(
        &self,
        op: Op,
        done: Completion,
        stats: &plp_instrument::StatsRegistry,
        enqueued_at: u64,
    ) {
        stats.cs().enter(CsCategory::MessagePassing, false);
        stats.msg().dispatch_sent(false);
        self.dispatch(
            WorkerRequest::Owned {
                op,
                done,
                enqueued_at,
            },
            None,
        );
    }

    fn dispatch(&self, req: WorkerRequest, lane: Option<&LaneSender<WorkerRequest>>) -> bool {
        match lane {
            Some(lane) => lane.send(req).expect("worker alive"),
            None => {
                self.sender.send(req).expect("worker alive");
                false
            }
        }
    }

    /// Route a page-cleaning batch to this worker.
    pub fn send_clean(&self, pages: Vec<PageId>) {
        let _ = self.sender.send(WorkerRequest::Clean { pages });
    }

    /// Quiesce the worker: returns a sender that resumes it when dropped or
    /// signalled.
    pub fn quiesce(&self) -> Sender<()> {
        let (ack_tx, ack_rx) = bounded(1);
        let (resume_tx, resume_rx) = bounded(1);
        self.sender
            .send(WorkerRequest::Quiesce {
                ack: ack_tx,
                resume: resume_rx,
            })
            .expect("worker alive");
        ack_rx.recv().expect("quiesce ack");
        resume_tx
    }

    /// Ask the worker to shut down and join its thread (idempotent).
    pub fn shutdown(&self) {
        let _ = self.sender.send(WorkerRequest::Shutdown);
        if let Some(t) = self.thread.lock().take() {
            join_unless_self(t);
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Join `handle` unless it is the calling thread's own: a background thread
/// (worker, DLB controller, checkpointer) can be the one unwinding the last
/// `Arc` that owns it, and `pthread_join` of self aborts the process
/// (EDEADLK).
pub(crate) fn join_unless_self(handle: JoinHandle<()>) {
    if handle.thread().id() != std::thread::current().id() {
        let _ = handle.join();
    }
}

/// The worker's per-thread state, borrowed by every request it executes.
struct Worker<'w> {
    db: &'w Database,
    design: Design,
    token: OwnerToken,
    local_locks: LocalLockTable,
    ring: &'w TraceRing,
}

impl Worker<'_> {
    /// Run one action body in a fresh [`PartitionCtx`] for `txn_id`, traced
    /// as an execute span opened at `started`.  Returns the result, the
    /// action's redo records and the span's end (0 in `obs-stub` builds).
    /// The body shared by every data-plane request kind.
    fn run_action(
        &mut self,
        txn_id: u64,
        started: u64,
        body: impl FnOnce(&mut dyn DataContext) -> Result<ActionOutput, EngineError>,
    ) -> (Result<ActionOutput, EngineError>, Vec<LogRecord>, u64) {
        let mut ctx = PartitionCtx::new(
            self.db,
            self.design,
            self.token,
            &mut self.local_locks,
            txn_id,
        );
        // The span guard records on drop — including the unwind of a
        // panicking action, so the autopsy dump shows what was running.
        let span = self
            .ring
            .span_at(TraceEvent::ExecuteAction, txn_id, started);
        let result = body(&mut ctx);
        let finished = span.complete();
        (result, ctx.take_log(), finished)
    }

    /// A single-op transaction from begin to commit on this thread (see
    /// [`WorkerRequest::Owned`]).  Its one round trip runs from the
    /// requester's enqueue to the op's end: queue wait plus execution
    /// (begin included), with no reply leg.  The answer waits for
    /// durability without this thread waiting: the log manager releases it
    /// inline (Lazy) or from the flusher.
    fn run_owned(&mut self, op: Op, done: Completion, enqueued_at: u64) {
        let db = self.db;
        let started = now_nanos();
        let begun = Instant::now();
        let mut txn = db.txn_manager().begin();
        let txn_id = txn.id();
        let (result, log, finished) = self.run_action(txn_id, started, |ctx| op.apply(ctx));
        let finished = if obs_enabled() { finished } else { now_nanos() };
        // Merge the action's log records into the transaction so the commit
        // record covers them (one consolidated insert).
        for record in log {
            db.log_manager().log_record(txn.log_handle_mut(), record);
        }
        txn.set_action_count(1);
        let rt = finished.saturating_sub(enqueued_at);
        db.stats().msg().roundtrip(rt);
        db.stats().latency().action_roundtrip.record(rt);
        let mut phases = PhaseBreakdown {
            queue_nanos: started.saturating_sub(enqueued_at),
            exec_nanos: finished.saturating_sub(started),
            ..PhaseBreakdown::default()
        };
        let outcome = match result {
            Ok(output) => Ok((output, db.txn_manager().commit_deferred(&mut txn))),
            Err(e) => {
                db.txn_manager().abort(&mut txn);
                Err(e)
            }
        };
        let finished_at = if obs_enabled() { now_nanos() } else { 0 };
        let committed = outcome.is_ok();
        if committed {
            phases.wal_nanos = finished_at.saturating_sub(finished);
        }
        account_txn(
            db,
            self.ring,
            TxnEnd {
                txn_id,
                committed,
                elapsed: begun.elapsed(),
                trace_start: enqueued_at,
                finished_at,
                actions: 1,
                phases,
                dispatched: true,
            },
        );
        match outcome {
            Ok((output, lsn)) => db.log_manager().release_when_durable(lsn, move |r| {
                done(match r {
                    Ok(()) => Response::Ok(vec![output]),
                    Err(reason) => Response::err(ErrorCode::Storage, reason),
                })
            }),
            Err(e) => done(Err(e).into()),
        }
    }

    /// Execute one data-plane request (actions, batches, owned transactions,
    /// cleaning).  Control messages never reach this — they are matched in
    /// the worker loop.
    fn execute(&mut self, req: WorkerRequest, cleaner: &PageCleaner) {
        match req {
            WorkerRequest::Action {
                txn_id,
                run,
                reply,
                enqueued_at,
            } => {
                let started = if obs_enabled() { now_nanos() } else { 0 };
                let (result, log, finished) = self.run_action(txn_id, started, run);
                let phases = PhaseBreakdown {
                    queue_nanos: started.saturating_sub(enqueued_at),
                    exec_nanos: finished.saturating_sub(started),
                    ..PhaseBreakdown::default()
                };
                // The reply is the worker's half of the message-passing pair.
                self.db
                    .stats()
                    .cs()
                    .enter(CsCategory::MessagePassing, false);
                reply.fulfill(ActionReply {
                    result,
                    log,
                    phases,
                });
            }
            WorkerRequest::Batch {
                txn_id,
                actions,
                mut reply,
                enqueued_at,
            } => {
                // Strictly in dispatch order, and every action runs even
                // after an earlier one failed — identical outcomes to the
                // equivalent sequence of Action messages (the coordinator
                // aggregates the per-action results).
                //
                // Trace timestamps are chained — each action's end is the
                // next one's start — so the batch pays one clock read per
                // action (plus one to open) instead of two.  Each action runs
                // under its own span guard, so a panicking action's span is
                // recorded during unwind (matching the singleton arm) and the
                // autopsy dump shows which batch member was running.
                let n = actions.len() as u64;
                let batch_t0 = if obs_enabled() { now_nanos() } else { 0 };
                let queue_nanos = batch_t0.saturating_sub(enqueued_at);
                let mut prev = batch_t0;
                let mut first = true;
                for run in actions {
                    let (result, log, t) = self.run_action(txn_id, prev, run);
                    let phases = PhaseBreakdown {
                        // The whole batch waited in the queue once;
                        // attributing it to the first reply keeps the
                        // coordinator's per-message sum exact.
                        queue_nanos: if first { queue_nanos } else { 0 },
                        exec_nanos: t.saturating_sub(prev),
                        ..PhaseBreakdown::default()
                    };
                    first = false;
                    prev = t;
                    reply.push(ActionReply {
                        result,
                        log,
                        phases,
                    });
                }
                if obs_enabled() {
                    self.ring
                        .event(TraceEvent::ExecuteBatch, n, batch_t0, prev - batch_t0);
                }
                // One message-passing critical section and one wake per batch.
                self.db
                    .stats()
                    .cs()
                    .enter(CsCategory::MessagePassing, false);
                reply.finish();
            }
            WorkerRequest::Owned {
                op,
                done,
                enqueued_at,
            } => self.run_owned(op, done, enqueued_at),
            WorkerRequest::Clean { pages } => {
                cleaner.clean_owned(self.token, &pages);
            }
            WorkerRequest::Quiesce { .. } | WorkerRequest::Shutdown => {
                unreachable!("control messages are handled in the worker loop")
            }
        }
    }
}

fn worker_loop(db: Arc<Database>, design: Design, token: OwnerToken, rx: Receiver<WorkerRequest>) {
    plp_instrument::tag_thread_engine(db.stats());
    plp_wal::forbid_durable_wait();
    let cleaner = PageCleaner::new(db.pool().clone());
    // One chrome://tracing row per worker.  The ring lives in the shared
    // stats registry, so a flight-recorder dump still sees this worker's
    // last events after the thread has died (e.g. from an action panic).
    let ring = db
        .stats()
        .trace()
        .register(format!("worker-{}", token.0 - 1));
    let mut worker = Worker {
        db: &db,
        design,
        token,
        local_locks: LocalLockTable::new(),
        ring: &ring,
    };
    let mut execute = |req: WorkerRequest| worker.execute(req, &cleaner);
    loop {
        // Fast path: drain the session lanes before touching the MPMC queue.
        while let Some(req) = rx.try_recv_lane() {
            execute(req);
        }
        match rx.try_recv() {
            Ok(WorkerRequest::Quiesce { ack, resume }) => {
                // Drain handshake (module docs): every action pushed onto a
                // lane before this quiesce was enqueued is visible now —
                // execute it before acking, so nothing enqueued under the
                // old partition boundaries is left behind while we park.
                while let Some(req) = rx.try_recv_lane() {
                    execute(req);
                }
                let _ = ack.send(());
                // Block until the repartitioning coordinator releases us.
                let _ = resume.recv();
            }
            Ok(WorkerRequest::Shutdown) => {
                // Same handshake: answer anything already in a lane so its
                // coordinator is not left waiting on a dropped promise.
                while let Some(req) = rx.try_recv_lane() {
                    execute(req);
                }
                break;
            }
            Ok(req) => execute(req),
            Err(TryRecvError::Empty) => rx.wait_any(),
            Err(TryRecvError::Disconnected) => {
                while let Some(req) = rx.try_recv_lane() {
                    execute(req);
                }
                break;
            }
        }
    }
}
