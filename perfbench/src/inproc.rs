//! `tatp-inproc`: two in-process sessions run the full seven-transaction
//! TATP mix against PLP-Regular at `EngineConfig` defaults (4 partitions,
//! Lazy commit, no log device), 100 k subscribers.

use std::time::{Duration, Instant};

use plp_core::{Design, Engine, EngineConfig};
use plp_workloads::tatp::Tatp;
use plp_workloads::Workload;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::checks::TatpTxn;
use crate::ledger;
use crate::trace::Tracer;
use crate::window::{
    report_measured, report_traced, set_up, stream_seed, windows, Tally, Window, CLIENTS,
    WARMUP_PHASE,
};
use crate::{Outcome, Run};

pub const SUBSCRIBERS: u64 = 100_000;
pub const WARMUP: Duration = Duration::from_secs(1);

pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = measure(run, &mut out) {
        out.problems.push(e);
    }
    out
}

/// Start the engine, load TATP and finish loading — the span of `setup_s`.
pub fn setup_engine(tatp: &Tatp, tracer: &mut Tracer) -> Result<Engine, String> {
    let schema = tatp.schema();
    let engine = tracer.time(0, None, "Engine::start", || {
        Engine::start(EngineConfig::new(Design::PlpRegular), &schema)
    });
    tracer
        .time(0, None, "Workload::load", || tatp.load(engine.db()))
        .map_err(|e| format!("TATP load: {e}"))?;
    tracer.time(0, None, "Engine::finish_loading", || {
        engine.finish_loading()
    });
    Ok(engine)
}

/// Window length for a phase: 1 s of warm-up, else `--seconds`.
pub fn window_length(run: &Run, phase: u64) -> Duration {
    if phase == WARMUP_PHASE {
        WARMUP
    } else {
        Duration::from_secs(run.seconds)
    }
}

fn measure(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let tatp = Tatp::new(SUBSCRIBERS);
    let mut tracer = Tracer::new(run.trace, run.epoch, 0);
    let (mut engine, setup_s) = set_up(
        run,
        |_| setup_engine(&tatp, &mut tracer),
        |mut old: Engine| {
            old.shutdown();
            Ok(())
        },
    )?;
    let kept = windows(
        run,
        out,
        |phase, traced| {
            window(
                &engine,
                &tatp,
                run,
                phase,
                window_length(run, phase),
                traced,
            )
        },
        |w| ledger::reconcile(&w.ledger, w.tally.attempted),
    );
    report_measured(out, &kept[0], &setup_s, false)?;
    if let Some(traced) = kept.get(1) {
        report_traced(
            out,
            "tatp-inproc",
            run,
            (&kept[0], traced),
            "txn",
            tracer.into_spans(),
            &engine.trace_json(),
        )?;
    }
    engine.shutdown();
    Ok(())
}

/// One closed-loop window of the TATP mix on [`CLIENTS`] sessions.
fn window(
    engine: &Engine,
    tatp: &Tatp,
    run: &Run,
    phase: u64,
    length: Duration,
    traced: bool,
) -> Window {
    let deadline = Instant::now() + length;
    let (w, _) = Window::run(
        engine,
        (0..CLIENTS).collect(),
        || {},
        |i, _, origin| {
            let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(run.seed, phase, i));
            let mut session = engine.session();
            let lane = (phase << 8) | (i as u64 + 1);
            let mut tracer = Tracer::new(traced, run.epoch, lane);
            let mut tally = Tally::default();
            loop {
                let id = (lane << 32) | tally.attempted;
                let root = tracer.reserve();
                let root_start = tracer.now();
                let txn = TatpTxn::draw(tatp, &mut rng);
                let plan = txn.plan(tatp);
                let exec_start = tracer.now();
                let t0 = Instant::now();
                let result = session.execute(plan);
                let t1 = Instant::now();
                tracer.record(id, Some(root), "Session::execute", exec_start, tracer.now());
                tally.attempted += 1;
                tally.sample(origin, t0, t1);
                match result {
                    Ok(outputs) => {
                        tally.completed += 1;
                        if let Err(e) = txn.check(&outputs) {
                            tally.fail(e);
                        }
                    }
                    Err(e) => tally.fail(format!("{txn:?} did not commit: {e}")),
                }
                tracer.record_as(root, id, None, "txn", root_start, tracer.now());
                if t1 >= deadline {
                    break;
                }
            }
            tally.spans = tracer.into_spans();
            (tally, ())
        },
    );
    w
}
