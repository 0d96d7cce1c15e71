//! `tatp-wire`: the `tatp-inproc` engine behind `Server::serve` with
//! `ServerConfig::default()` in the same process.  Two client threads each
//! open one `Connection` and keep 4 `TatpOpMix` single-op requests in
//! flight, so 8 are outstanding.

use std::sync::Arc;
use std::time::{Duration, Instant};

use plp_client::{Connection, TatpOpMix};
use plp_core::{Engine, Op};
use plp_server::{Server, ServerConfig};
use plp_workloads::tatp::Tatp;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::checks::{check_server_counters, check_wire_response};
use crate::inproc::{setup_engine, window_length, SUBSCRIBERS};
use crate::ledger;
use crate::trace::Tracer;
use crate::window::{
    report_measured, report_traced, set_up, stream_seed, windows, Tally, Window, CLIENTS,
};
use crate::{Outcome, Run};

/// Requests each connection keeps in flight.
pub const DEPTH: usize = 4;
/// How long to wait for the server's response counter to catch up with the
/// responses the clients already hold (it is bumped after the write).
const COUNTER_SETTLE: Duration = Duration::from_secs(2);

/// Engine, server and the client connections, in teardown order.
struct Rig {
    conns: Vec<Connection>,
    server: Server,
    engine: Arc<Engine>,
}

impl Rig {
    fn setup(tatp: &Tatp, tracer: &mut Tracer) -> Result<Rig, String> {
        let engine = Arc::new(setup_engine(tatp, tracer)?);
        let server = tracer
            .time(0, None, "Server::serve", || {
                Server::serve(Arc::clone(&engine), ServerConfig::default())
            })
            .map_err(|e| format!("Server::serve: {e}"))?;
        let addr = server.addr();
        let conns = (0..CLIENTS)
            .map(|_| {
                tracer
                    .time(0, None, "Connection::connect", || Connection::connect(addr))
                    .map_err(|e| format!("Connection::connect {addr}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Rig {
            conns,
            server,
            engine,
        })
    }

    /// Close the connections, drain the server, then shut the engine down.
    fn teardown(self) -> Result<(), String> {
        let Rig {
            conns,
            mut server,
            engine,
        } = self;
        drop(conns);
        server.stop();
        let mut engine = Arc::try_unwrap(engine)
            .map_err(|_| "engine still shared after Server::stop".to_string())?;
        engine.shutdown();
        Ok(())
    }
}

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure(run, &mut out) {
        out.problems.push(e);
    }
    out
}

fn measure(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let tatp = Tatp::new(SUBSCRIBERS);
    let mut tracer = Tracer::new(run.trace, run.epoch, 0);
    let (mut rig, setup_s) = set_up(run, |_| Rig::setup(&tatp, &mut tracer), Rig::teardown)?;
    let kept = windows(
        run,
        out,
        |phase, traced| window(&mut rig, run, phase, window_length(run, phase), traced),
        |w| {
            ledger::reconcile(&w.ledger, w.tally.completed)?;
            check_server_counters(w.tally.frames_sent, &w.ledger.stats.server)
        },
    );
    report_measured(out, &kept[0], &setup_s, true)?;
    if let Some(traced) = kept.get(1) {
        report_traced(
            out,
            "tatp-wire",
            run,
            (&kept[0], traced),
            "request",
            tracer.into_spans(),
            &rig.engine.trace_json(),
        )?;
    }
    rig.teardown()
}

/// A request on the wire: its op, when it was queued, and its root span.
struct InFlight {
    request_id: u64,
    op: Op,
    sent: Instant,
    span: u64,
    span_start: u64,
}

/// One client thread's connection and state.
struct Client<'a> {
    conn: &'a mut Connection,
    /// The window's start.
    origin: Instant,
    mix: TatpOpMix,
    rng: ChaCha8Rng,
    lane: u64,
    tracer: Tracer,
    tally: Tally,
    inflight: Vec<InFlight>,
}

impl Client<'_> {
    /// Span id of a request: the client lane plus the wire request id.
    fn gid(&self, request_id: u64) -> u64 {
        (self.lane << 32) | request_id
    }

    fn send(&mut self) -> std::io::Result<()> {
        let op = self.mix.next_op(&mut self.rng);
        let span = self.tracer.reserve();
        let span_start = self.tracer.now();
        let sent = Instant::now();
        let request_id = self.conn.send(&op)?;
        let end = self.tracer.now();
        let gid = self.gid(request_id);
        self.tracer
            .record(gid, Some(span), "Connection::send", span_start, end);
        self.tally.attempted += 1;
        self.tally.frames_sent += 1;
        self.inflight.push(InFlight {
            request_id,
            op,
            sent,
            span,
            span_start,
        });
        Ok(())
    }

    /// Flush queued requests; the span is charged to the last one queued.
    fn flush(&mut self) -> std::io::Result<()> {
        let start = self.tracer.now();
        let result = self.conn.flush();
        if let Some(last) = self.inflight.last() {
            let (gid, span) = (self.gid(last.request_id), last.span);
            let end = self.tracer.now();
            self.tracer
                .record(gid, Some(span), "Connection::flush", start, end);
        }
        result
    }

    /// The connection is unusable: every request still in flight failed.
    fn broken(mut self, what: String) -> Tally {
        for p in std::mem::take(&mut self.inflight) {
            self.tally
                .fail(format!("request {} ({:?}): {what}", p.request_id, p.op));
        }
        self.finish()
    }

    fn finish(mut self) -> Tally {
        self.tally.spans = self.tracer.into_spans();
        self.tally
    }

    /// Keep [`DEPTH`] requests in flight until `deadline`, then drain.
    fn run(mut self, deadline: Instant) -> Tally {
        for _ in 0..DEPTH {
            if let Err(e) = self.send() {
                return self.broken(format!("send: {e}"));
            }
        }
        if let Err(e) = self.flush() {
            return self.broken(format!("flush: {e}"));
        }
        while !self.inflight.is_empty() {
            let recv_start = self.tracer.now();
            let (request_id, response) = match self.conn.recv() {
                Ok(r) => r,
                Err(e) => return self.broken(format!("recv: {e}")),
            };
            let now = Instant::now();
            let Some(pos) = self
                .inflight
                .iter()
                .position(|p| p.request_id == request_id)
            else {
                return self.broken(format!(
                    "response for request id {request_id}, which is not in flight"
                ));
            };
            let p = self.inflight.swap_remove(pos);
            let gid = self.gid(request_id);
            let recv_end = self.tracer.now();
            self.tracer
                .record(gid, Some(p.span), "Connection::recv", recv_start, recv_end);
            self.tally.completed += 1;
            self.tally.sample(self.origin, p.sent, now);
            if let Err(e) = check_wire_response(&p.op, &response) {
                self.tally.fail(format!("request {request_id}: {e}"));
            }
            let end = self.tracer.now();
            self.tracer
                .record_as(p.span, gid, None, "request", p.span_start, end);
            if now < deadline {
                if let Err(e) = self.send().and_then(|()| self.flush()) {
                    return self.broken(format!("send: {e}"));
                }
            }
        }
        self.finish()
    }
}

/// One closed-loop window: each connection keeps [`DEPTH`] requests in
/// flight until the deadline, then drains.  The ledger is read once every
/// response is in and the server's counters have caught up.
fn window(rig: &mut Rig, run: &Run, phase: u64, length: Duration, traced: bool) -> Window {
    let deadline = Instant::now() + length;
    let engine = Arc::clone(&rig.engine);
    let settle = || {
        // The writer counts a response after buffering it, which can trail
        // the client's read of it by a moment.
        let t0 = Instant::now();
        while t0.elapsed() < COUNTER_SETTLE {
            let s = engine.db().stats().server().snapshot();
            if s.responses_sent >= s.frames_decoded {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let clients = rig.conns.iter_mut().collect();
    let (w, _) = Window::run(&engine, clients, settle, |i, conn, origin| {
        let lane = (phase << 8) | (i as u64 + 1);
        let client = Client {
            conn,
            origin,
            mix: TatpOpMix::new(SUBSCRIBERS),
            rng: ChaCha8Rng::seed_from_u64(stream_seed(run.seed, phase, i)),
            lane,
            tracer: Tracer::new(traced, run.epoch, lane),
            tally: Tally::default(),
            inflight: Vec::with_capacity(DEPTH),
        };
        (client.run(deadline), ())
    });
    w
}
