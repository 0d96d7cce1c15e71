//! The TCP connection server.
//!
//! Thread topology (no thread-per-request).  On a partitioned engine every
//! request is single-hop — the reader hands it straight to the partition
//! worker that owns its key, and that worker runs the whole transaction and
//! answers the writer:
//!
//! ```text
//! accept thread ──► reader thread (per connection)
//!                        │  decode, validate, route (dispatch guard)
//!                        ▼
//!                  owning partition worker: begin → op → commit
//!                        │  encoded response (from the log flusher
//!                        │  instead when the commit waits for durability)
//!                        ▼
//!                  response queue ──► writer thread
//! ```
//!
//! On a conventional engine (no partition workers) the reader feeds a
//! shared work queue instead, and a fixed executor pool runs each request
//! through [`Session::run`](plp_core::engine::Session::run):
//!
//! ```text
//! reader ──► shared work queue ──► executor pool ──► response queue ──► writer
//! ```
//!
//! Readers answer `Hello` and frames that do not decode into an op
//! themselves.  A connection can have many requests in flight, and they
//! finish in whatever order the engine completes them, which is why every
//! response echoes its request id.
//!
//! Shutdown drain: [`Server::stop`] first stops the accept loop, then
//! shuts down the read side of every live socket (unblocking the readers,
//! which stop taking requests), lets the executors drain their queue, waits
//! until every request already decoded has been answered — wherever it runs
//! — and finally stops the writer once its queue is flushed.  Every decoded
//! request is executed *and* answered; a connection closes only after its
//! last response is queued.  TCP half-close by a client is not supported: a
//! client that shuts down its write side is treated as gone.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use plp_core::{Engine, ErrorCode, Op, Request, Response};
use plp_instrument::trace::now_nanos;
use plp_instrument::{obs_enabled, StatsRegistry};

use crate::frame::{read_frame, Frame, OpCode, ReadOutcome};

/// How long a quiet accept loop sleeps between polls.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// The shared writer never waits longer than this on one stuck client
/// before dropping its connection.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Connection-server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 binds an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Executor-pool size on a conventional engine: how many requests run
    /// concurrently (the server-side analogue of in-process client
    /// threads).  A partitioned engine runs requests on its partition
    /// workers and starts no executors.
    pub executors: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            executors: 4,
        }
    }
}

impl ServerConfig {
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    pub fn with_executors(mut self, n: usize) -> Self {
        self.executors = n.max(1);
        self
    }
}

/// One unit of executor work: a decoded request, the connection to answer
/// on, its request id and the decode timestamp.
enum Work {
    Request {
        conn: Arc<ConnHandle>,
        request_id: u64,
        op: Op,
        decoded_at: u64,
    },
    Stop,
}

/// Control messages for the writer thread, which owns every outbound stream.
enum WriterMsg {
    Register(u64, TcpStream),
    Frame(u64, Vec<u8>),
    Close(u64),
    Stop,
}

/// Connection handles still alive, so [`Server::stop`] can wait until every
/// decoded request has been answered.
#[derive(Default)]
struct Live {
    count: Mutex<usize>,
    drained: Condvar,
}

impl Live {
    /// The count is a plain integer, valid after every update, so a
    /// poisoned lock is safe to recover.
    fn count(&self) -> MutexGuard<'_, usize> {
        self.count.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_for_zero(&self) {
        let mut count = self.count();
        while *count > 0 {
            count = self
                .drained
                .wait(count)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One connection's route back to its client, shared by the reader and
/// every request of the connection still in flight.  Dropping the last
/// clone — after the connection's last response was queued — closes the
/// connection at the writer, so no response is ever queued behind its
/// connection's close.
struct ConnHandle {
    conn: u64,
    write_tx: Sender<WriterMsg>,
    stats: Arc<StatsRegistry>,
    live: Arc<Live>,
}

impl ConnHandle {
    fn new(
        conn: u64,
        write_tx: Sender<WriterMsg>,
        stats: Arc<StatsRegistry>,
        live: Arc<Live>,
    ) -> Self {
        *live.count() += 1;
        ConnHandle {
            conn,
            write_tx,
            stats,
            live,
        }
    }

    /// Queue `frame` for the writer without touching the request histogram
    /// (frames that never decoded into a request).
    fn send(&self, frame: &Frame) {
        let _ = self
            .write_tx
            .send(WriterMsg::Frame(self.conn, frame.encode()));
    }

    /// Answer a decoded request: encode its response, record the
    /// `server_request` histogram (decode → response queued) and queue it.
    /// The one answering path of every request, whichever thread ran it.
    fn answer(&self, frame: &Frame, decoded_at: u64) {
        let bytes = frame.encode();
        if obs_enabled() {
            self.stats
                .latency()
                .server_request
                .record(now_nanos().saturating_sub(decoded_at));
        }
        let _ = self.write_tx.send(WriterMsg::Frame(self.conn, bytes));
    }

    fn respond(&self, request_id: u64, decoded_at: u64, response: &Response) {
        let frame = match response {
            Response::Ok(outputs) => Frame::response_ok(request_id, outputs),
            Response::Err { code, message } => Frame::response_err(request_id, *code, message),
        };
        self.answer(&frame, decoded_at);
    }
}

impl Drop for ConnHandle {
    fn drop(&mut self) {
        let _ = self.write_tx.send(WriterMsg::Close(self.conn));
        *self.live.count() -= 1;
        self.live.drained.notify_all();
    }
}

/// A running connection server.  Dropping it (or calling [`Server::stop`])
/// drains and joins every thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    live: Arc<Live>,
    accept_thread: Option<JoinHandle<()>>,
    executor_threads: Vec<JoinHandle<()>>,
    writer_thread: Option<JoinHandle<()>>,
    work_tx: Sender<Work>,
    write_tx: Sender<WriterMsg>,
}

impl Server {
    /// Bind the listen socket and start serving `engine`.
    ///
    /// The engine arrives as an [`Arc`] (see
    /// [`Engine::start_shared`](plp_core::Engine::start_shared)) because
    /// every reader (and, on a conventional engine, every executor thread)
    /// holds a clone; the caller keeps its clone for direct in-process
    /// access alongside the server.
    pub fn serve(engine: Arc<Engine>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stats = Arc::clone(engine.db().stats());
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<HashMap<u64, TcpStream>>> = Arc::default();
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let live: Arc<Live> = Arc::default();
        let (work_tx, work_rx) = unbounded::<Work>();
        let (write_tx, write_rx) = unbounded::<WriterMsg>();

        let writer_thread = {
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("plp-srv-writer".to_string())
                .spawn(move || writer_loop(write_rx, stats))?
        };
        // The executor pool is the coordinator path of the conventional
        // designs only; partitioned engines run requests on their workers.
        let executors = if engine.partition_manager().is_some() {
            0
        } else {
            config.executors.max(1)
        };
        let executor_threads = (0..executors)
            .map(|i| {
                let engine = Arc::clone(&engine);
                let work_rx = work_rx.clone();
                std::thread::Builder::new()
                    .name(format!("plp-srv-exec-{i}"))
                    .spawn(move || executor_loop(&engine, &work_rx))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let accept_thread = {
            let shared = Shared {
                engine,
                work_tx: work_tx.clone(),
                write_tx: write_tx.clone(),
                stats,
                live: Arc::clone(&live),
            };
            let conns = Arc::clone(&conns);
            let readers = Arc::clone(&readers);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("plp-srv-accept".to_string())
                .spawn(move || accept_loop(listener, shared, conns, readers, stop))?
        };

        Ok(Server {
            addr,
            stop,
            conns,
            readers,
            live,
            accept_thread: Some(accept_thread),
            executor_threads,
            writer_thread: Some(writer_thread),
            work_tx,
            write_tx,
        })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drain and shut down: stop accepting, stop reading from every
    /// connection, answer every request already decoded, flush every queued
    /// response, then join all threads.  Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Unblock the readers: shutting the read side down makes their
        // blocking reads return, and each reader stops taking requests.  The
        // write side stays open so the decoded requests can still be
        // answered.
        for (_, stream) in self.conns.lock().unwrap().iter() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let handles: Vec<_> = self.readers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        // The work queue now grows no more; a Stop sentinel per executor
        // lets each finish the requests queued ahead of it first.
        for _ in 0..self.executor_threads.len() {
            let _ = self.work_tx.send(Work::Stop);
        }
        for h in self.executor_threads.drain(..) {
            let _ = h.join();
        }
        // Requests on partition workers (or waiting for the log flusher)
        // hold their connection's handle until answered; once the last is
        // gone, every response and every close is in the writer's queue.
        self.live.wait_for_zero();
        // Same for the writer: every queued response precedes the sentinel.
        let _ = self.write_tx.send(WriterMsg::Stop);
        if let Some(t) = self.writer_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What every reader shares: the engine and the queues it answers through.
#[derive(Clone)]
struct Shared {
    engine: Arc<Engine>,
    work_tx: Sender<Work>,
    write_tx: Sender<WriterMsg>,
    stats: Arc<StatsRegistry>,
    live: Arc<Live>,
}

fn accept_loop(
    listener: TcpListener,
    shared: Shared,
    conns: Arc<Mutex<HashMap<u64, TcpStream>>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    stop: Arc<AtomicBool>,
) {
    let mut next_conn = 1u64;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn = next_conn;
                next_conn += 1;
                // Per-connection setup failures just drop that connection.
                let _ = spawn_connection(conn, stream, &shared, &conns, &readers);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn spawn_connection(
    conn: u64,
    stream: TcpStream,
    shared: &Shared,
    conns: &Arc<Mutex<HashMap<u64, TcpStream>>>,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let writer_half = stream.try_clone()?;
    let shutdown_handle = stream.try_clone()?;
    shared.stats.server().connection_accepted();
    conns.lock().unwrap().insert(conn, shutdown_handle);
    // Register before the reader runs so the writer knows the connection by
    // the time the first response is enqueued.
    let _ = shared.write_tx.send(WriterMsg::Register(conn, writer_half));
    let handle = Arc::new(ConnHandle::new(
        conn,
        shared.write_tx.clone(),
        Arc::clone(&shared.stats),
        Arc::clone(&shared.live),
    ));
    let handle = {
        let shared = shared.clone();
        let conns = Arc::clone(conns);
        std::thread::Builder::new()
            .name(format!("plp-srv-conn-{conn}"))
            .spawn(move || {
                reader_loop(&handle, stream, &shared);
                conns.lock().unwrap().remove(&conn);
                // Dropping the reader's `handle` here (and the last
                // in-flight request's later) closes the connection.
            })?
    };
    readers.lock().unwrap().push(handle);
    Ok(())
}

fn reader_loop(conn: &Arc<ConnHandle>, stream: TcpStream, shared: &Shared) {
    let stats = &shared.stats;
    let pm = shared.engine.partition_manager();
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader) {
            Ok(ReadOutcome::Frame(frame)) => {
                stats
                    .server()
                    .frame_decoded(48 + frame.payload.len() as u64);
                let decoded_at = now_nanos();
                let request_id = frame.request_id;
                if OpCode::from_u8(frame.opcode) == Some(OpCode::Hello) {
                    conn.answer(&Frame::hello_ack(request_id), decoded_at);
                    continue;
                }
                let op = match frame.to_op() {
                    Ok(op) => op,
                    Err(defect) => {
                        let reply = Frame::response_err(request_id, ErrorCode::BadRequest, &defect);
                        conn.answer(&reply, decoded_at);
                        continue;
                    }
                };
                match pm {
                    Some(pm) => {
                        let conn = Arc::clone(conn);
                        pm.submit(
                            op,
                            decoded_at,
                            Box::new(move |response| {
                                conn.respond(request_id, decoded_at, &response)
                            }),
                        );
                    }
                    None => {
                        let work = Work::Request {
                            conn: Arc::clone(conn),
                            request_id,
                            op,
                            decoded_at,
                        };
                        if shared.work_tx.send(work).is_err() {
                            break;
                        }
                    }
                }
            }
            Ok(ReadOutcome::Rejected {
                request_id,
                reason,
                consumed,
            }) => {
                // Soft decode error: answer (matched to the salvaged request
                // id when there was one) and keep reading — the length
                // prefix already resynchronized the stream.
                stats.server().decode_error(consumed);
                conn.send(&Frame::response_err(
                    request_id.unwrap_or(0),
                    ErrorCode::BadRequest,
                    &format!("undecodable frame: {reason}"),
                ));
            }
            Ok(ReadOutcome::Closed) | Err(_) => break,
        }
    }
}

/// The conventional engines' coordinator path: one [`Session`] per
/// executor thread.
///
/// [`Session`]: plp_core::engine::Session
fn executor_loop(engine: &Arc<Engine>, work_rx: &Receiver<Work>) {
    let mut session = engine.session();
    while let Ok(Work::Request {
        conn,
        request_id,
        op,
        decoded_at,
    }) = work_rx.recv()
    {
        let response = session.run(Request::single(op));
        conn.respond(request_id, decoded_at, &response);
    }
}

fn writer_loop(write_rx: Receiver<WriterMsg>, stats: Arc<StatsRegistry>) {
    let mut streams: HashMap<u64, io::BufWriter<TcpStream>> = HashMap::new();
    let mut dirty: Vec<u64> = Vec::new();
    let mut since_flush = 0u32;
    let flush_dirty = |streams: &mut HashMap<u64, io::BufWriter<TcpStream>>,
                       dirty: &mut Vec<u64>| {
        for conn in dirty.drain(..) {
            if let Some(stream) = streams.get_mut(&conn) {
                if stream.flush().is_err() {
                    let _ = stream.get_ref().shutdown(Shutdown::Both);
                    streams.remove(&conn);
                }
            }
        }
    };
    loop {
        // Batch: drain everything already queued into the per-connection
        // buffers, and flush when the queue runs empty (or every 64
        // responses, so a quiet connection cannot starve behind busy ones)
        // — under load many responses share one syscall, when idle latency
        // stays flat.
        let msg = match write_rx.try_recv() {
            Ok(msg) => msg,
            Err(_) => {
                flush_dirty(&mut streams, &mut dirty);
                since_flush = 0;
                match write_rx.recv() {
                    Ok(msg) => msg,
                    Err(_) => break,
                }
            }
        };
        match msg {
            WriterMsg::Register(conn, stream) => {
                streams.insert(conn, io::BufWriter::new(stream));
            }
            WriterMsg::Frame(conn, bytes) => {
                // A response for a connection that already closed is simply
                // dropped — the requester is gone.
                let Some(stream) = streams.get_mut(&conn) else {
                    continue;
                };
                if stream.write_all(&bytes).is_ok() {
                    stats.server().response_sent(bytes.len() as u64);
                    if !dirty.contains(&conn) {
                        dirty.push(conn);
                    }
                    since_flush += 1;
                    if since_flush >= 64 {
                        flush_dirty(&mut streams, &mut dirty);
                        since_flush = 0;
                    }
                } else {
                    // A stuck or vanished client loses its connection; it
                    // must never wedge the shared writer.
                    let _ = stream.get_ref().shutdown(Shutdown::Both);
                    streams.remove(&conn);
                }
            }
            WriterMsg::Close(conn) => {
                streams.remove(&conn);
                stats.server().connection_closed();
            }
            WriterMsg::Stop => break,
        }
    }
    // Final drain: anything still buffered goes out before the threads join.
    for (_, stream) in streams.iter_mut() {
        let _ = stream.flush();
    }
}
